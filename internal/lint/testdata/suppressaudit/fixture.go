// Package fixturesa exercises the -suppressions audit: one live directive
// (it silences a real finding), one stale directive (nothing left on its
// line to silence), and one directive for a check the audit run does not
// select (never judged stale). TestSuppressionAudit loads this package with
// lint.Audit rather than the want-annotation harness.
package fixturesa

import "fmt"

// Live: the panic below is a real nopanic finding, so the directive is used.
func MustPositive(v int) int {
	if v <= 0 {
		panic(fmt.Sprintf("fixturesa: %d must be positive", v)) //ppalint:ignore nopanic fixture: live directive, silences the finding on this line
	}
	return v
}

// Stale: nothing on the annotated line fires nopanic anymore.
func Clean(v int) int {
	return v + 1 //ppalint:ignore nopanic fixture: stale directive, the panic it excused is gone
}

// Unselected: printlib is not part of the audit's check selection, so this
// directive is reported but never judged stale.
func Other(v int) int {
	return v * 2 //ppalint:ignore printlib fixture: directive for an unselected check
}
