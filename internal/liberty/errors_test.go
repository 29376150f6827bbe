package liberty

import (
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/scan"
)

// TestMalformedInputs drives the strict parser through the former panic
// sites (unterminated strings, unbounded nesting) and the former
// silent-default sites (discarded ParseFloat results) and checks the
// structured error carries the right file and line.
func TestMalformedInputs(t *testing.T) {
	deep := "library (l) {\n" + strings.Repeat("g(){", 80) + "\n"
	cases := []struct {
		name    string
		in      string
		line    int
		msgPart string
	}{
		{"not a library", "cell (c) {\n}\n", 1, "want library"},
		{"missing paren", "library l\n", 1, "expected ("},
		{"eof in group", "library (l) {\n  cell (c) {\n", 2, "unexpected EOF"},
		{"deep nesting", deep, 2, "nested deeper"},
		{"bad leakage", "library (l) {\n  cell (c) {\n    cell_leakage_power : soup;\n  }\n}\n", 3, "cell_leakage_power"},
		{"bad area", "library (l) {\n  cell (c) {\n    area : 1e99;\n  }\n}\n", 3, "area"},
		{"bad capacitance", "library (l) {\n  cell (c) {\n    pin (A) {\n      capacitance : x;\n    }\n  }\n}\n", 4, "capacitance"},
		{"nameless cell", "library (l) {\n  cell () {\n    area : 1;\n  }\n}\n", 2, "without a name"},
		{"nameless pin", "library (l) {\n  cell (c) {\n    pin () {\n      direction : input;\n    }\n  }\n}\n", 3, "without a name"},
		{"bad table number", "library (l) {\n  cell (c) {\n    pin (Z) {\n      timing () {\n        cell_rise () {\n          index_1 (\"x\");\n          values (\"0.1\");\n        }\n      }\n    }\n  }\n}\n", 6, "table number"},
		{"table shape", "library (l) {\n  cell (c) {\n    pin (Z) {\n      timing () {\n        cell_rise () {\n          index_1 (\"0.1, 0.2\");\n          index_2 (\"0.001\");\n          values (\"0.5\");\n        }\n      }\n    }\n  }\n}\n", 5, "rows"},
		{"unknown related pin", "library (l) {\n  cell (c) {\n    pin (Z) {\n      timing () {\n        related_pin : \"B\";\n      }\n    }\n  }\n}\n", 5, "names no pin"},
		{"denormal table entry", "library (l) {\n  cell (c) {\n    pin (Z) {\n      timing () {\n        cell_rise () {\n          index_1 (\"1e-300\");\n          values (\"0.1\");\n        }\n      }\n    }\n  }\n}\n", 6, "table number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseWith(strings.NewReader(tc.in), Options{})
			if err == nil {
				t.Fatalf("parse accepted %q", tc.in)
			}
			var pe *scan.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, not *scan.ParseError: %v", err, err)
			}
			if pe.File != "liberty" {
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
	// Unterminated quote must not panic the tokenizer (former out-of-bounds
	// slice); the input happens to parse, which is fine — the invariant is
	// no crash.
	if _, _, err := ParseWith(strings.NewReader("library (l) {\n  cell (c) {\n    x : \"unterminated;\n  }\n}\n"), Options{}); err != nil {
		var pe *scan.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("unterminated string produced a non-structured error: %v", err)
		}
	}
}

// TestLenientMode checks that bad numeric attributes, malformed arcs and
// arcs whose related_pin names no pin of the cell downgrade to warnings that
// carry their line numbers.
func TestLenientMode(t *testing.T) {
	in := "library (l) {\n" +
		"  cell (C) {\n" +
		"    area : soup;\n" + // warn: bad area, cell kept
		"    cell_leakage_power : 3.0;\n" +
		"    pin (A) {\n" +
		"      direction : input;\n" +
		"      capacitance : bad;\n" + // warn: cap skipped
		"    }\n" +
		"    pin (Z) {\n" +
		"      direction : output;\n" +
		"      timing () {\n" +
		"        related_pin : \"A\";\n" +
		"        cell_rise () {\n" +
		"          index_1 (\"x\");\n" + // warn: arc dropped
		"          values (\"0.1\");\n" +
		"        }\n" +
		"      }\n" +
		"      timing () {\n" +
		"        related_pin : \"B\";\n" + // warn: no pin B, arc dropped
		"      }\n" +
		"      timing () {\n" +
		"        related_pin : \"A\";\n" +
		"      }\n" +
		"    }\n" +
		"  }\n" +
		"}\n"
	lib, warns, err := ParseWith(strings.NewReader(in), Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient parse failed: %v", err)
	}
	if len(warns) != 4 {
		t.Fatalf("warnings = %d, want 4: %v", len(warns), warns)
	}
	m := lib.Master("C")
	if m == nil {
		t.Fatal("cell lost")
	}
	if m.Leakage == 0 {
		t.Fatal("good leakage value lost")
	}
	if m.Pins[0].Cap != 0 { // A
		t.Fatal("bad capacitance should be skipped")
	}
	if z := m.Pins[1]; len(z.Arcs) != 1 || z.Arcs[0].From != 0 {
		t.Fatalf("arcs of Z = %+v: the malformed arc and the one from no pin should be dropped in lenient mode, the one from A kept", z.Arcs)
	}
	for _, wantLine := range []int{3, 7, 14, 19} {
		found := false
		for _, w := range warns {
			if w.Line == wantLine {
				found = true
			}
		}
		if !found {
			t.Fatalf("no warning for line %d: %v", wantLine, warns)
		}
	}
}
