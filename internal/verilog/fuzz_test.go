package verilog

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/scan"
)

// FuzzReadVerilog asserts the structural-Verilog reader never panics,
// returns structured errors, and round-trips its own emission
// byte-for-byte (including assign canonicalization and escaped
// identifiers), and that the connectivity build on any design it accepts
// returns rather than panics.
func FuzzReadVerilog(f *testing.F) {
	b := designs.Generate(designs.TinySpec(7))
	var seed bytes.Buffer
	if err := Write(&seed, b.Design); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("module m (a, z);\n  input a;\n  output z;\n  wire w1;\n" +
		"  INV_X1 u1 (.A(a), .ZN(w1));\n  INV_X1 u2 (.A(w1), .ZN(z));\nendmodule\n")
	f.Add("module m (x, y);\n  input x;\n  input y;\n  assign x = y;\nendmodule\n")
	f.Add("module m (\\a/b );\n  input \\a/b ;\nendmodule\n")
	f.Add("module m (a);\n  input a;\n  BOGUS u (.A(a));\nendmodule\n")
	f.Fuzz(func(t *testing.T, in string) {
		d, _, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{File: "fuzz.v"})
		ld, _, lerr := ParseWith(strings.NewReader(in), designs.Lib(),
			Options{File: "fuzz.v", Lenient: true})
		if lerr != nil {
			requireParseError(t, lerr)
		} else {
			// The connectivity build may reject an accepted design (a net
			// naming an undeclared port, say); it must only not panic.
			_, _ = ld.CompactChecked()
		}
		if err != nil {
			requireParseError(t, err)
			return
		}
		_, _ = d.CompactChecked() // may reject, must not panic
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
