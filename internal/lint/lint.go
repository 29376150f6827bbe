// Package lint is ppalint's analyzer framework: a stdlib-only package
// loader/type-checker driver (loader.go), a diagnostic model with file:line
// provenance, per-line suppressions with a staleness audit, and the
// project-contract checks that no test can stand in for (nopanic, rawindex,
// errdrop, printlib, i32trunc, ndsource). DESIGN.md
// "Project-contract lint" holds the catalog and the mutation pass that
// decided which checks stay.
//
// The framework deliberately uses nothing outside the standard library
// (go/parser, go/ast, go/types, go/importer) so the pure-Go constraint of
// the reproduction holds for its tooling too.
//
// Suppression contract: a finding is silenced by a comment of the form
//
//	//ppalint:ignore <check> <reason>
//
// placed either on the offending line or on the line directly above it. The
// reason is mandatory; a reasonless or unknown-check directive is itself
// reported (check name "suppress") and suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a position in a source file.
type Diagnostic struct {
	Check string
	File  string
	Line  int
	Col   int
	Msg   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Msg)
}

// Check is one named analysis over a type-checked package; Doc is its
// one-line summary.
type Check struct {
	Name string
	Doc  string
	Run  func(p *Package, report func(pos token.Pos, format string, args ...any))
}

// catalog returns the full project check catalog in a fixed order.
func catalog() []*Check {
	return []*Check{
		noPanicCheck, rawIndexCheck, errDropCheck, printLibCheck, i32TruncCheck, ndSourceCheck,
	}
}

// CheckNames returns the catalog's names, in catalog order.
func CheckNames() []string {
	var names []string
	for _, c := range catalog() {
		names = append(names, c.Name)
	}
	return names
}

// Select resolves a comma-separated check-name list against the catalog. An
// empty spec selects everything; a non-empty one must name at least one
// check.
func Select(spec string) ([]*Check, error) {
	all := catalog()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]*Check, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*Check
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(CheckNames(), ", "))
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("check list %q names no check (have %s)", spec, strings.Join(CheckNames(), ", "))
	}
	return out, nil
}

// ignoreDirective is one parsed //ppalint:ignore comment.
type ignoreDirective struct {
	check  string
	reason string
	file   string
	line   int
	col    int
}

const ignorePrefix = "//ppalint:ignore"

// parseIgnores extracts every //ppalint:ignore directive of a file.
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, ignorePrefix)
			pos := fset.Position(c.Pos())
			d := ignoreDirective{file: pos.Filename, line: pos.Line, col: pos.Column}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				d.check = fields[0]
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// Suppression is one valid //ppalint:ignore directive as the audit sees it.
// Stale means no finding of the named check landed on the directive's line
// or the line below during the run — the directive outlived the code it
// excused and must be deleted.
type Suppression struct {
	File   string
	Line   int
	Check  string
	Reason string
	Stale  bool
}

// Run applies checks to pkgs and returns the surviving diagnostics sorted by
// file, line, column, check. Suppression directives are honored here;
// malformed directives surface as "suppress" diagnostics.
func Run(pkgs []*Package, checks []*Check) []Diagnostic {
	diags, _ := runChecks(pkgs, checks)
	return diags
}

// Audit runs like Run but additionally accounts for every valid suppression
// directive: a directive is live when it silenced at least one finding of
// its check, stale otherwise. Staleness is only judged for directives whose
// check was actually selected. Suppressions are returned sorted by file,
// line, check.
func Audit(pkgs []*Package, checks []*Check) ([]Diagnostic, []Suppression) {
	return runChecks(pkgs, checks)
}

func runChecks(pkgs []*Package, checks []*Check) ([]Diagnostic, []Suppression) {
	var diags []Diagnostic
	type suppressKey struct {
		file  string
		line  int
		check string
	}
	suppressed := map[suppressKey]bool{}
	used := map[suppressKey]bool{}
	known := map[string]bool{}
	for _, c := range catalog() {
		known[c.Name] = true
	}
	selected := map[string]bool{}
	for _, c := range checks {
		selected[c.Name] = true
	}

	var directives []ignoreDirective
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range parseIgnores(p.Fset, f) {
				switch {
				case d.check == "":
					diags = append(diags, Diagnostic{Check: "suppress", File: d.file, Line: d.line, Col: d.col,
						Msg: "ppalint:ignore needs a check name and a reason"})
				case !known[d.check]:
					diags = append(diags, Diagnostic{Check: "suppress", File: d.file, Line: d.line, Col: d.col,
						Msg: fmt.Sprintf("ppalint:ignore names unknown check %q", d.check)})
				case d.reason == "":
					diags = append(diags, Diagnostic{Check: "suppress", File: d.file, Line: d.line, Col: d.col,
						Msg: fmt.Sprintf("ppalint:ignore %s needs a written reason", d.check)})
				default:
					suppressed[suppressKey{d.file, d.line, d.check}] = true
					directives = append(directives, d)
				}
			}
		}
	}

	for _, p := range pkgs {
		for _, c := range checks {
			c.Run(p, func(pos token.Pos, format string, args ...any) {
				where := p.Fset.Position(pos)
				// A valid directive on the finding's own line or the line
				// directly above silences it.
				for _, line := range [2]int{where.Line, where.Line - 1} {
					k := suppressKey{where.Filename, line, c.Name}
					if suppressed[k] {
						used[k] = true
						return
					}
				}
				diags = append(diags, Diagnostic{
					Check: c.Name, File: where.Filename, Line: where.Line, Col: where.Column,
					Msg: fmt.Sprintf(format, args...),
				})
			})
		}
	}

	var sups []Suppression
	for _, d := range directives {
		sups = append(sups, Suppression{
			File: d.file, Line: d.line, Check: d.check, Reason: d.reason,
			Stale: selected[d.check] && !used[suppressKey{d.file, d.line, d.check}],
		})
	}
	sort.Slice(sups, func(i, j int) bool {
		a, b := sups[i], sups[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Check < b.Check
	})

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	return diags, sups
}

// internalPkg reports whether path is a library package under the module's
// internal tree (fixtures get the same treatment through their declared
// import path).
func internalPkg(path string) bool {
	return strings.Contains(path, "/internal/")
}

// pkgBase returns the last import-path element ("ppaclust/internal/sta" ->
// "sta").
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
