package verilog

import (
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// TestMalformedInputs checks that syntax and reference errors carry file
// and line context as structured *scan.ParseError values.
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		line    int
		msgPart string
	}{
		{"not a module", "wire w;\n", 1, `expected "module"`},
		{"eof mid header", "module m (a, b\n", 1, `expected ")"`},
		{"eof in body", "module m ();\n  wire w;\n", 2, "end of file"},
		{"bad port decl", "module m (a);\n  input a b;\n", 2, "port declaration"},
		{"duplicate port", "module m (a);\n  input a;\n  output a;\n", 3, "a"},
		{"unknown cell", "module m ();\n  BOGUS u ();\nendmodule\n", 2, "unknown cell"},
		{"unknown pin", "module m ();\n  INV_X1 u (.Q(w));\nendmodule\n", 2, "no such pin"},
		{"eof in instance", "module m ();\n  INV_X1 u (.A(\n", 2, `expected ")"`},
		{"non-port assign", "module m ();\n  wire a, b;\n  assign a = b;\nendmodule\n", 3, "outside the subset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseWith(strings.NewReader(tc.in), designs.Lib(), Options{})
			if err == nil {
				t.Fatalf("parse accepted %q", tc.in)
			}
			var pe *scan.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, not *scan.ParseError: %v", err, err)
			}
			if pe.File != "verilog" {
				t.Fatalf("file = %q", pe.File)
			}
			if pe.Line != tc.line {
				t.Fatalf("line = %d, want %d (%v)", pe.Line, tc.line, pe)
			}
			if !strings.Contains(pe.Error(), tc.msgPart) {
				t.Fatalf("error %q does not mention %q", pe.Error(), tc.msgPart)
			}
		})
	}
}

// TestLenientSkipsNonPortAssign checks the one lenient-tolerable construct:
// an assign between two non-port names is skipped with a warning.
func TestLenientSkipsNonPortAssign(t *testing.T) {
	in := "module m (p);\n  input p;\n  wire a, b;\n  assign a = b;\n  INV_X1 u (.A(a), .ZN(b));\nendmodule\n"
	d, warns, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient parse failed: %v", err)
	}
	if len(warns) != 1 || warns[0].Line != 4 {
		t.Fatalf("warnings = %v, want one at line 4", warns)
	}
	if d.Instance("u") == nil {
		t.Fatal("instance after skipped assign lost")
	}
	// Unknown cells stay fatal in lenient mode.
	if _, _, err := ParseWith(strings.NewReader("module m ();\n  BOGUS u ();\nendmodule\n"),
		designs.Lib(), Options{Lenient: true}); err == nil {
		t.Fatal("unknown cell must stay fatal in lenient mode")
	}
}

// TestPortToPortAssignStable checks the canonicalization order fix: an
// assign between two input ports keeps the same direction through a
// write/parse cycle instead of flipping every iteration.
func TestPortToPortAssignStable(t *testing.T) {
	in := "module m (x, y);\n  input x;\n  input y;\n  assign x = y;\nendmodule\n"
	d, _, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var w1 strings.Builder
	if err := Write(&w1, d); err != nil {
		t.Fatal(err)
	}
	d2, _, err := ParseWith(strings.NewReader(w1.String()), designs.Lib(), Options{})
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, w1.String())
	}
	var w2 strings.Builder
	if err := Write(&w2, d2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Fatalf("port-to-port assign not stable:\n--- w1:\n%s--- w2:\n%s", w1.String(), w2.String())
	}
}

// TestOutputPortAssignPrecedence checks the lhs-output case wins over the
// rhs-port case, matching the writer's emission for output ports.
func TestOutputPortAssignPrecedence(t *testing.T) {
	in := "module m (o, i);\n  output o;\n  input i;\n  assign o = i;\nendmodule\n"
	d, _, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Port o should ride on net i.
	n := d.Net("i")
	if n == nil {
		t.Fatal("net i missing")
	}
	found := false
	for _, pr := range n.Pins {
		if pr.IsPort() && pr.Pin == "o" {
			found = true
		}
	}
	if !found {
		t.Fatal("output port o not attached to net i")
	}
	_ = netlist.DirOutput
}
