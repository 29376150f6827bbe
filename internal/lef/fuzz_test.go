package lef

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// FuzzReadLEF asserts the LEF reader never panics, returns structured
// errors, and round-trips its own emission byte-for-byte.
func FuzzReadLEF(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, designs.Lib()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("MACRO INV\n  CLASS CORE ;\n  SIZE 0.8 BY 1.4 ;\n" +
		"  PIN A\n    DIRECTION INPUT ;\n    ORIGIN 0.1 0.7 ;\n  END A\nEND INV\n")
	f.Add("MACRO M\n  CLASS BLOCK ;\n  PIN CK\n    USE CLOCK ;\n  END CK\nEND M\n")
	f.Add("MACRO\nSIZE 1 ;\nDIRECTION\n")
	f.Fuzz(func(t *testing.T, in string) {
		lib := netlist.NewLibrary("fuzz")
		_, _, err := ParseWith(strings.NewReader(in), lib, Options{File: "fuzz.lef"})
		if _, _, lerr := ParseWith(strings.NewReader(in), netlist.NewLibrary("fuzz"),
			Options{File: "fuzz.lef", Lenient: true}); lerr != nil {
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
		lib2 := netlist.NewLibrary("fuzz")
		if _, _, err := ParseWith(bytes.NewReader(w1.Bytes()), lib2, Options{}); err != nil {
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
