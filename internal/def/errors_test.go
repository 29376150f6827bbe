package def

import (
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/scan"
)

// TestMalformedInputs drives the strict parser through every former panic
// or silent-default site and checks the structured error carries the right
// file and line.
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		line    int
		msgPart string
	}{
		{"row twelve fields", "DESIGN d ;\nROW r site 0 0 N DO 10 BY 2 STEP 400\n", 2, "fields"},
		{"row bad keyword", "DESIGN d ;\nROW r site 0 0 N DO 10 XX 2 STEP 400 1400 ;\n", 2, "DO/BY/STEP"},
		{"row bad float", "DESIGN d ;\nROW r site zero 0 N DO 1 BY 1 STEP 400 1400 ;\n", 2, "number"},
		{"row bad count", "DESIGN d ;\nROW r site 0 0 N DO 1.5 BY 1 STEP 400 1400 ;\n", 2, "integer"},
		{"row huge extent", "DESIGN d ;\nROW r site 0 0 N DO 1000000 BY 1 STEP 99999999999 1400 ;\n", 2, "past"},
		{"units bad", "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS zero ;\n", 3, "number"},
		{"units range", "DESIGN d ;\nUNITS DISTANCE MICRONS 0 ;\n", 2, "range"},
		{"diearea short", "DESIGN d ;\nDIEAREA ( 0 0 ) ;\n", 2, "4 coordinates"},
		{"diearea bad coord", "DESIGN d ;\nDIEAREA ( 0 x ) ( 1 1 ) ;\n", 2, "number"},
		{"duplicate design", "DESIGN a ;\nDESIGN b ;\n", 2, "duplicate"},
		{"component placed truncated", "DESIGN d ;\nCOMPONENTS 1 ;\n- u INV_X1 + PLACED ( 1\n", 3, "( x y )"},
		{"component bad coord", "DESIGN d ;\nCOMPONENTS 1 ;\n- u INV_X1 + PLACED ( a 2 ) N ;\n", 3, "number"},
		{"pin placed bad", "DESIGN d ;\nPINS 1 ;\n- p + NET p + DIRECTION INPUT + PLACED ( 1 b ) N ;\n", 3, "number"},
		{"net truncated conn", "DESIGN d ;\nCOMPONENTS 1 ;\n- u INV_X1 ;\nEND COMPONENTS\nNETS 1 ;\n- n ( u\n", 6, "truncated"},
		{"net bad weight", "DESIGN d ;\nPINS 1 ;\n- a + NET a ;\nEND PINS\nNETS 1 ;\n- n ( PIN a ) + WEIGHT x ;\n", 6, "integer"},
		{"weight fractional", "DESIGN d ;\nPINS 1 ;\n- a + NET a ;\nEND PINS\nNETS 1 ;\n- n ( PIN a ) + WEIGHT 2.5 ;\n", 6, "integer"},
		{"net undeclared port", "DESIGN d ;\nCOMPONENTS 1 ;\n- u INV_X1 ;\nEND COMPONENTS\nNETS 1 ;\n- n ( u ZN ) ( PIN b ) ;\n", 6, `no port "b"`},
		{"net undeclared master pin", "DESIGN d ;\nCOMPONENTS 1 ;\n- u INV_X1 ;\nEND COMPONENTS\nNETS 1 ;\n- n ( u Q ) ;\n", 6, `no pin "Q"`},
		{"coord overflow", "DESIGN d ;\nDIEAREA ( 0 0 ) ( 99999999999999 1 ) ;\n", 2, "range"},
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
			if pe.File != "def" {
				t.Fatalf("file = %q", pe.File)
			}
			if pe.Line != tc.line {
				t.Fatalf("line = %d, want %d (%v)", pe.Line, tc.line, pe)
			}
			if !strings.Contains(pe.Msg, tc.msgPart) {
				t.Fatalf("msg %q does not mention %q", pe.Msg, tc.msgPart)
			}
		})
	}
}

// TestLenientMode checks that recoverable field errors become warnings and
// the parse still succeeds, while structural errors stay fatal.
func TestLenientMode(t *testing.T) {
	in := "DESIGN d ;\n" +
		"DIEAREA ( 0 0 ) ( 1 ) ;\n" + // tolerable: bad geometry
		"ROW r site 0 0 N DO 10 BY 2 STEP 400\n" + // tolerable: short ROW
		"COMPONENTS 1 ;\n" +
		"- u INV_X1 + PLACED ( x 2 ) N ;\n" + // tolerable: bad placement
		"END COMPONENTS\nEND DESIGN\n"
	d, warns, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient parse failed: %v", err)
	}
	if len(warns) != 3 {
		t.Fatalf("warnings = %d, want 3: %v", len(warns), warns)
	}
	if u := indexNames(d).insts["u"]; u == nil || u.Placed {
		t.Fatal("instance should exist unplaced")
	}
	for i, wantLine := range []int{2, 3, 5} {
		if warns[i].Line != wantLine {
			t.Fatalf("warning %d line = %d, want %d", i, warns[i].Line, wantLine)
		}
	}
	// Structural errors stay fatal even in lenient mode.
	if _, _, err := ParseWith(strings.NewReader("DESIGN d ;\nCOMPONENTS 1 ;\n- u NO_SUCH ;\n"),
		designs.Lib(), Options{Lenient: true}); err == nil {
		t.Fatal("unknown master must stay fatal in lenient mode")
	}
	if _, _, err := ParseWith(strings.NewReader("DESIGN d ;\nUNITS DISTANCE MICRONS x ;\n"),
		designs.Lib(), Options{Lenient: true}); err == nil {
		t.Fatal("corrupt UNITS must stay fatal in lenient mode")
	}
	if _, _, err := ParseWith(strings.NewReader("DESIGN d ;\nNETS 1 ;\n- n ( PIN nosuch ) ;\n"),
		designs.Lib(), Options{Lenient: true}); err == nil {
		t.Fatal("a net pin naming an undeclared port must stay fatal in lenient mode")
	}
}

// TestDuplicateNamesFatal checks that the reader, the one place that
// checks names, rejects a repeated COMPONENTS, PINS or NETS entry at its
// line, in both modes.
func TestDuplicateNamesFatal(t *testing.T) {
	cases := []struct {
		name, in string
		line     int
	}{
		{"component", "DESIGN d ;\nCOMPONENTS 2 ;\n- u INV_X1 ;\n- u INV_X1 ;\nEND COMPONENTS\n", 4},
		{"pin", "DESIGN d ;\nPINS 2 ;\n- a + NET a ;\n- a + NET a ;\nEND PINS\n", 4},
		{"net", "DESIGN d ;\nPINS 1 ;\n- a + NET a ;\nEND PINS\nNETS 2 ;\n- n ( PIN a ) ;\n- n ( PIN a ) ;\nEND NETS\n", 7},
	}
	for _, tc := range cases {
		for _, lenient := range []bool{false, true} {
			_, _, err := ParseWith(strings.NewReader(tc.in), designs.Lib(), Options{File: "dup.def", Lenient: lenient})
			var pe *scan.ParseError
			if !errors.As(err, &pe) || pe.File != "dup.def" || pe.Line != tc.line || !strings.Contains(pe.Msg, "duplicate "+tc.name) {
				t.Errorf("duplicate %s, lenient=%v: got %v, want a parse error at dup.def:%d", tc.name, lenient, err, tc.line)
			}
		}
	}
}
