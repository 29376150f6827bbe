package sdc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/scan"
	"ppaclust/internal/sta"
)

// FuzzReadSDC asserts the SDC reader never panics, reports every failure as
// a structured *scan.ParseError (including a -period flag that ends its
// line), and round-trips its own emission byte-for-byte.
func FuzzReadSDC(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, sta.DefaultConstraints(0.8e-9)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("create_clock -name clk -period 1.5 [get_ports clk]\n" +
		"set_input_delay 0.2 -clock clk [all_inputs]\n" +
		"set_load 0.004 [all_outputs]\n")
	f.Add("# comment\ncreate_clock -period 2.0 [get_ports ck]\nset_input_transition 0.05 [all_inputs]\n")
	f.Add("create_clock -period\n")
	f.Add("create_clock [get_ports clk] -period abc\n")
	f.Fuzz(func(t *testing.T, in string) {
		cons, _, err := ParseWith(strings.NewReader(in), Options{File: "fuzz.sdc"})
		if _, _, lerr := ParseWith(strings.NewReader(in),
			Options{File: "fuzz.sdc", Lenient: true}); lerr != nil {
			requireParseError(t, lerr)
		}
		if err != nil {
			requireParseError(t, err)
			return
		}
		var w1 bytes.Buffer
		if err := Write(&w1, cons); err != nil {
			t.Fatalf("write after accepting parse: %v", err)
		}
		cons2, _, err := ParseWith(bytes.NewReader(w1.Bytes()), Options{})
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput:\n%s", err, w1.String())
		}
		var w2 bytes.Buffer
		if err := Write(&w2, cons2); err != nil {
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
