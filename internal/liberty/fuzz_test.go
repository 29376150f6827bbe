package liberty

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/scan"
)

// FuzzReadLiberty asserts the liberty reader never panics (including on
// unterminated strings and deep group nesting), returns structured errors,
// and round-trips its own emission byte-for-byte.
func FuzzReadLiberty(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, designs.Lib()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("library (l) {\n  cell (INV) {\n    area : 1.12;\n    pin (A) { direction : input; capacitance : 0.001; }\n" +
		"    pin (ZN) {\n      direction : output;\n      timing () {\n        related_pin : \"A\";\n" +
		"        timing_type : combinational;\n        cell_rise () {\n          index_1 (\"0.01\");\n" +
		"          index_2 (\"0.001\");\n          values (\"0.02\");\n        }\n      }\n    }\n  }\n}\n")
	f.Add("library (l) { cell (C) { area : bogus; } }\n")
	f.Add("library (l) { cell (C) { pin (\"unterminated) { } } }\n")
	f.Fuzz(func(t *testing.T, in string) {
		lib, _, err := ParseWith(strings.NewReader(in), Options{File: "fuzz.lib"})
		if _, _, lerr := ParseWith(strings.NewReader(in),
			Options{File: "fuzz.lib", Lenient: true}); lerr != nil {
			requireParseError(t, lerr)
		}
		if err != nil {
			requireParseError(t, err)
			return
		}
		var w1 bytes.Buffer
		if err := Write(&w1, lib); err != nil {
			t.Fatalf("write after accepting parse: %v", err)
		}
		lib2, _, err := ParseWith(bytes.NewReader(w1.Bytes()), Options{})
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput:\n%s", err, w1.String())
		}
		var w2 bytes.Buffer
		if err := Write(&w2, lib2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write->read->write is not a fixpoint\n--- first:\n%s--- second:\n%s",
				w1.String(), w2.String())
		}
	})
}

func requireParseError(t *testing.T, err error) {
	t.Helper()
	var pe *scan.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *scan.ParseError: %T: %v", err, err)
	}
	if pe.File == "" {
		t.Fatalf("ParseError without file context: %v", pe)
	}
}
