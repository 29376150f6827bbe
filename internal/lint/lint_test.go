package lint_test

import (
	"os"
	"strings"
	"testing"

	"ppaclust/internal/lint"
	"ppaclust/internal/lint/linttest"
)

// The fixture packages carry at least one real (pre-fix) diagnostic per
// check plus the approved alternatives and a written-reason suppression, so
// these tests pin both halves of each contract: what fires and what stays
// silent.

func TestNoPanicFixture(t *testing.T) {
	linttest.RunDir(t, "testdata/nopanic", "ppaclust/internal/fixture", "nopanic")
}

func TestRawIndexFixture(t *testing.T) {
	linttest.RunDir(t, "testdata/rawindex", "ppaclust/internal/def", "rawindex")
}

func TestErrDropFixture(t *testing.T) {
	linttest.RunDir(t, "testdata/errdrop", "ppaclust/internal/fixtureed", "errdrop")
}

func TestPrintLibFixture(t *testing.T) {
	linttest.RunDir(t, "testdata/printlib", "ppaclust/internal/fixturepl", "printlib")
}

func TestI32TruncFixture(t *testing.T) {
	linttest.RunDir(t, "testdata/i32trunc", "ppaclust/internal/netlist", "i32trunc")
}

func TestNDSourceFixture(t *testing.T) {
	linttest.RunDir(t, "testdata/ndsource", "ppaclust/internal/fixturend", "ndsource")
}

// TestNDSourceAllowedPackages pins the allowed side: the same time.Now call
// that fires in a library package is silent under flow's import path. The
// fixture carries no want annotations, so RunDir asserts zero findings.
func TestNDSourceAllowedPackages(t *testing.T) {
	linttest.RunDir(t, "testdata/ndsource_allowed", "ppaclust/internal/flow", "ndsource")
}

// TestMalformedSuppressions covers malformed directives: they are reported
// under the "suppress" check and silence nothing.
func TestMalformedSuppressions(t *testing.T) {
	linttest.RunDir(t, "testdata/suppress", "ppaclust/internal/fixturesup", "nopanic")
}

// TestSuppressionAudit pins the -suppressions contract on a fixture with one
// live directive, one stale one, and one for an unselected check.
func TestSuppressionAudit(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadAs("testdata/suppressaudit", "ppaclust/internal/fixturesa")
	if err != nil {
		t.Fatal(err)
	}
	checks, err := lint.Select("nopanic")
	if err != nil {
		t.Fatal(err)
	}
	diags, sups := lint.Audit([]*lint.Package{pkg}, checks)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if len(sups) != 3 {
		t.Fatalf("got %d suppressions, want 3: %v", len(sups), sups)
	}
	byCheckReason := map[string]bool{}
	for _, s := range sups {
		byCheckReason[s.Check+"|"+s.Reason] = s.Stale
	}
	assertStale := func(check, wantSub string, want bool) {
		t.Helper()
		for k, stale := range byCheckReason {
			if strings.HasPrefix(k, check+"|") && strings.Contains(k, wantSub) {
				if stale != want {
					t.Errorf("directive %q: stale = %v, want %v", k, stale, want)
				}
				return
			}
		}
		t.Errorf("no %s directive containing %q in %v", check, wantSub, sups)
	}
	assertStale("nopanic", "live directive", false)
	assertStale("nopanic", "stale directive", true)
	assertStale("printlib", "unselected check", false)
}

// TestReadmeListsAllChecks keeps the README's ppalint section in sync with
// the catalog: every check name must appear in README.md.
func TestReadmeListsAllChecks(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range lint.CheckNames() {
		if !strings.Contains(string(data), name) {
			t.Errorf("README.md does not mention check %q", name)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := lint.Select("")
	if err != nil || len(all) != len(lint.CheckNames()) {
		t.Fatalf("Select(\"\") = %d checks, err %v", len(all), err)
	}
	two, err := lint.Select("printlib, nopanic")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select subset = %d checks, err %v", len(two), err)
	}
	for _, spec := range []string{"nosuchcheck", ",", " , "} {
		if _, err := lint.Select(spec); err == nil {
			t.Errorf("Select(%q) must fail: it names no known check", spec)
		}
	}
}

// TestRepoIsLintClean is the self-lint gate: the tree at HEAD must produce
// zero findings under all six checks and zero stale suppressions, so any
// new contract violation (or a directive that outlived its finding) fails
// the ordinary test suite even before scripts/check.sh runs the CLI.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo type-check is slow; run without -short")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := lint.Expand(loader.ModRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*lint.Package
	for _, d := range dirs {
		p, err := loader.Load(d)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	all, err := lint.Select("")
	if err != nil {
		t.Fatal(err)
	}
	diags, sups := lint.Audit(pkgs, all)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	for _, s := range sups {
		if s.Stale {
			t.Errorf("%s:%d: stale //ppalint:ignore %s directive (%s)", s.File, s.Line, s.Check, s.Reason)
		}
	}
}
