package def

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/scan"
)

// FuzzReadDEF asserts the crash-proofing contract of the DEF reader: it
// never panics, every failure is a structured *scan.ParseError, and any
// input it accepts re-emits as a write->read->write fixpoint.
func FuzzReadDEF(f *testing.F) {
	b := designs.Generate(designs.TinySpec(7))
	var seed bytes.Buffer
	if err := Write(&seed, b.Design); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("VERSION 5.8 ;\nDESIGN top ;\nUNITS DISTANCE MICRONS 1000 ;\n" +
		"DIEAREA ( 0 0 ) ( 100000 100000 ) ;\n" +
		"ROW CORE_AREA site 0 0 N DO 100 BY 50 STEP 400 1400 ;\nEND DESIGN\n")
	f.Add("DESIGN d ;\nNETS 1 ;\n- n1 ( PIN a ) + WEIGHT 3 + USE CLOCK ;\nEND NETS\n")
	f.Add("DESIGN d ;\nROW r s 0 0 N DO 1 BY 1 STEP\n")
	f.Add("DESIGN d ;\nCOMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 12000 2800 ) N ;\nEND COMPONENTS\n")
	f.Fuzz(func(t *testing.T, in string) {
		d, _, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{File: "fuzz.def"})
		// Lenient mode must also never panic, whatever strict mode decided.
		if _, _, lerr := ParseWith(strings.NewReader(in), designs.Lib(),
			Options{File: "fuzz.def", Lenient: true}); lerr != nil {
			requireParseError(t, lerr)
		}
		if err != nil {
			requireParseError(t, err)
			return
		}
		var w1 bytes.Buffer
		if err := Write(&w1, d); err != nil {
			t.Fatalf("write after accepting parse: %v", err)
		}
		d2, _, err := ParseWith(bytes.NewReader(w1.Bytes()), designs.Lib(), Options{})
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput:\n%s", err, w1.String())
		}
		var w2 bytes.Buffer
		if err := Write(&w2, d2); err != nil {
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
