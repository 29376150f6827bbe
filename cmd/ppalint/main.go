// Command ppalint mechanically enforces the repo's project contracts that no
// test can stand in for — no panics in library packages (nopanic),
// bounds-checked token access in the format readers (rawindex), no discarded
// parser/flow errors (errdrop), no stdout writes from libraries (printlib),
// no unguarded int32/uint32 narrowing of counts on the CSR build paths
// (i32trunc), and no stray nondeterminism sources (ndsource). DESIGN.md
// "Project-contract lint" is the catalog.
//
// Usage:
//
//	ppalint [-checks nopanic,errdrop,...] [packages]
//	ppalint -suppressions [-checks ...] [packages]
//
// Packages are directory patterns like ./... or ./internal/sta (default
// ./...). Exit status: 0 clean, 1 findings, 2 load/usage failure (including
// a -checks list that names no check). Findings are suppressed per line with
// `//ppalint:ignore <check> <reason>`.
//
// -suppressions audits every suppression directive instead of printing
// findings: each is listed with its reason, stale directives (no finding of
// the named check left to silence) are marked STALE, and any stale or
// malformed directive fails the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ppaclust/internal/lint"
)

func main() {
	checkSpec := flag.String("checks", "", "comma-separated checks to run (default: all of "+
		strings.Join(lint.CheckNames(), ",")+")")
	audit := flag.Bool("suppressions", false, "audit //ppalint:ignore directives; fail on stale or malformed ones")
	flag.Parse()

	if err := run(*audit, *checkSpec, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ppalint:", err)
		os.Exit(2)
	}
}

func run(audit bool, checkSpec string, patterns []string) error {
	checks, err := lint.Select(checkSpec)
	if err != nil {
		return err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return err
	}
	dirs, err := lint.Expand(cwd, patterns)
	if err != nil {
		return err
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		p, err := loader.Load(dir)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
	}
	relify := func(file string) string {
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return file
	}

	if audit {
		diags, sups := lint.Audit(pkgs, checks)
		reportAudit(relify, diags, sups)
		return nil
	}

	diags := lint.Run(pkgs, checks)
	for _, d := range diags {
		d.File = relify(d.File)
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Printf("ppalint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	return nil
}

// reportAudit prints the suppression inventory. Stale directives and
// malformed ones (surfaced by the run as "suppress" diagnostics) fail the
// audit; ordinary findings are the plain mode's business and do not.
func reportAudit(relify func(string) string, diags []lint.Diagnostic, sups []lint.Suppression) {
	stale := 0
	for _, s := range sups {
		mark := ""
		if s.Stale {
			mark = " [STALE]"
			stale++
		}
		fmt.Printf("%s:%d: %s — %s%s\n", relify(s.File), s.Line, s.Check, s.Reason, mark)
	}
	malformed := 0
	for _, d := range diags {
		if d.Check == "suppress" {
			d.File = relify(d.File)
			fmt.Println(d)
			malformed++
		}
	}
	fmt.Printf("ppalint: %d suppression(s), %d stale, %d malformed\n", len(sups), stale, malformed)
	if stale > 0 || malformed > 0 {
		os.Exit(1)
	}
}
