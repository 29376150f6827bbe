package lef

import (
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// TestMalformedInputs drives the strict parser through every former panic
// site (bare keyword lines indexed f[1] unchecked) and checks the
// structured error carries the right file and line.
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		line    int
		msgPart string
	}{
		{"bare macro", "MACRO\n", 1, "fields"},
		{"bare class", "MACRO M\nCLASS\n", 2, "fields"},
		{"bare direction", "MACRO M\nPIN P\nDIRECTION\n", 3, "fields"},
		{"bare use in pin", "MACRO M\nPIN P\nUSE\n", 3, "fields"},
		{"bare pin", "MACRO M\nPIN\n", 2, "fields"},
		{"size short", "MACRO M\nSIZE 1 ;\n", 2, "fields"},
		{"size bad dim", "MACRO M\nSIZE w BY 1.4 ;\n", 2, "number"},
		{"size negative", "MACRO M\nSIZE -1 BY 1.4 ;\n", 2, "range"},
		{"origin short", "MACRO M\nPIN P\nORIGIN ;\n", 3, "fields"},
		{"origin bad", "MACRO M\nPIN P\nORIGIN 0.1 y ;\n", 3, "number"},
		{"class outside macro", "CLASS CORE ;\n", 1, "outside"},
		{"direction outside pin", "DIRECTION INPUT ;\n", 1, "outside"},
		{"origin outside pin", "MACRO M\nORIGIN 1 2 ;\n", 2, "outside"},
		{"size outside macro", "SIZE 1 BY 2 ;\n", 1, "outside"},
		{"dim overflow", "MACRO M\nSIZE 999999999 BY 1 ;\n", 2, "range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ParseWith(strings.NewReader(tc.in), netlist.NewLibrary("t"), Options{})
			if err == nil {
				t.Fatalf("parse accepted %q", tc.in)
			}
			var pe *scan.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, not *scan.ParseError: %v", err, err)
			}
			if pe.File != "lef" {
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

// TestLenientMode checks field errors downgrade to warnings while
// structural errors stay fatal.
func TestLenientMode(t *testing.T) {
	in := "MACRO M\n" +
		"CLASS\n" + // tolerable
		"SIZE 0.8 BY oops ;\n" + // tolerable
		"PIN P\n" +
		"DIRECTION\n" + // tolerable
		"ORIGIN 0.1 0.7 ;\n" +
		"END P\nEND M\n"
	lib := netlist.NewLibrary("t")
	names, warns, err := ParseWith(strings.NewReader(in), lib, Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient parse failed: %v", err)
	}
	if len(names) != 1 || names[0] != "M" {
		t.Fatalf("names = %v", names)
	}
	if len(warns) != 3 {
		t.Fatalf("warnings = %d, want 3: %v", len(warns), warns)
	}
	m := lib.Master("M")
	if m == nil || m.Pin("P") == nil {
		t.Fatal("macro or pin lost in lenient mode")
	}
	if m.Pin("P").OffsetX != 0.1 {
		t.Fatalf("offset = %v", m.Pin("P").OffsetX)
	}
	// MACRO without a name stays fatal.
	if _, _, err := ParseWith(strings.NewReader("MACRO\n"), netlist.NewLibrary("t"),
		Options{Lenient: true}); err == nil {
		t.Fatal("bare MACRO must stay fatal in lenient mode")
	}
}
