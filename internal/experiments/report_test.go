package experiments

import (
	"regexp"
	"strings"
	"testing"
)

// measured matches the wall-clock fields of a section: they legitimately
// differ between two runs, so the one-renderer comparison blanks them.
var measured = regexp.MustCompile(`speedup: [0-9.]+x|Training time: [0-9.a-zµ]+\.`)

// TestWriteReportFast: the full report holds every section, and each
// deterministic section printed on its own (what `ppa bench -table <name>`
// writes) is a verbatim run of bytes of the full report — there is one
// renderer, not a second one that can drift.
func TestWriteReportFast(t *testing.T) {
	full, err := ParseSection("")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	claims, err := full(NewSuite(true, 11, 4), &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Section 4.4", "Figure 5", "Runtime breakdown", "Extension",
		"Reproduction shape checks",
	} {
		if !strings.Contains(out, "\n## "+want) {
			t.Fatalf("report missing section %q", want)
		}
	}
	if len(claims) < 8 {
		t.Fatalf("claims=%d", len(claims))
	}
	// Paper reference values must appear alongside measured ones.
	if !strings.Contains(out, "0.131") || !strings.Contains(out, "15547") {
		t.Fatal("paper reference values missing")
	}

	out = measured.ReplaceAllString(out, "")
	single := NewSuite(true, 11, 1) // flows are bit-identical at any worker count
	for _, name := range []string{"1", "3", "4", "5", "6", "gnn", "figure5", "ablation"} {
		write, err := ParseSection(name)
		if err != nil {
			t.Fatal(err)
		}
		var sec strings.Builder
		if _, err := write(single, &sec); err != nil {
			t.Fatalf("section %s: %v", name, err)
		}
		got := measured.ReplaceAllString(sec.String(), "")
		if !strings.HasPrefix(got, "## ") || !strings.HasSuffix(got, "\n") {
			t.Fatalf("section %s is not a heading-to-newline block:\n%s", name, got)
		}
		if !strings.Contains(out, got) {
			t.Fatalf("section %s printed alone is not a substring of the full report:\n%s", name, got)
		}
	}
}

// TestParseSection: every documented name resolves, the empty name is the
// full report, and anything else — `-figure 4` used to fall through to a
// full run that truncated EXPERIMENTS.md — is an error listing the valid
// names.
func TestParseSection(t *testing.T) {
	for _, name := range []string{"", "1", "2", "3", "4", "5", "6", "gnn", "figure5", "runtime", "ablation"} {
		write, err := ParseSection(name)
		if err != nil || write == nil {
			t.Errorf("ParseSection(%q): writer nil=%v, error %v", name, write == nil, err)
		}
	}
	const valid = "(valid: 1|2|3|4|5|6|gnn|figure5|runtime|ablation)"
	for _, name := range []string{"0", "7", "figure4", "figure", "5 ", "GNN", "table2", "all"} {
		write, err := ParseSection(name)
		if err == nil || write != nil {
			t.Errorf("ParseSection(%q): want an error and no writer, got writer nil=%v, error %v", name, write == nil, err)
			continue
		}
		if !strings.Contains(err.Error(), valid) || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("ParseSection(%q): error %q does not name the value and %s", name, err, valid)
		}
	}
}
