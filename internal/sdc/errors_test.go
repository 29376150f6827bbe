package sdc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ppaclust/internal/scan"
)

// TestMalformedInputs checks the flag-parsing fixes: a flag that ends its
// line, an unparsable -period, and out-of-range values all produce
// structured errors with the right line — the clock is never silently
// defaulted.
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		line    int
		msgPart string
	}{
		{"period last token", "# header\ncreate_clock -name clk -period\n", 2, "last token"},
		{"period unparsable", "create_clock -period x [get_ports clk]\n", 1, "unparsable"},
		{"period missing", "create_clock [get_ports clk]\n", 1, "missing -period"},
		{"period zero", "create_clock -period 0 [get_ports clk]\n", 1, "out of range"},
		{"period huge", "create_clock -period 1e12 [get_ports clk]\n", 1, "out of range"},
		{"portless clock", "create_clock -period 1.0\n", 1, "needs a port"},
		{"delay no value", "create_clock -period 1 [get_ports c]\nset_input_delay -clock c [all_inputs]\n", 2, "no numeric value"},
		{"load out of range", "create_clock -period 1 [get_ports c]\nset_load 1e10 [all_outputs]\n", 2, "out of range"},
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
			if pe.File != "sdc" {
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
	// No create_clock at all: file-level error, line 0.
	_, _, err := ParseWith(strings.NewReader("set_load 0.01 [all_outputs]\n"), Options{})
	var pe *scan.ParseError
	if !errors.As(err, &pe) || pe.Line != 0 || !strings.Contains(pe.Msg, "no create_clock") {
		t.Fatalf("missing-clock error malformed: %v", err)
	}
}

// TestLenientMode checks tolerable command errors downgrade to warnings
// while an unusable clock period stays fatal.
func TestLenientMode(t *testing.T) {
	in := "create_clock -period 2.0 [get_ports ck]\n" +
		"set_input_delay -clock ck [all_inputs]\n" + // warn: no value, default kept
		"set_load huge [all_outputs]\n" // warn: no value
	cons, warns, err := ParseWith(strings.NewReader(in), Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient parse failed: %v", err)
	}
	if len(warns) != 2 {
		t.Fatalf("warnings = %d, want 2: %v", len(warns), warns)
	}
	if cons.ClockPeriod != 2.0e-9 {
		t.Fatalf("period = %v", cons.ClockPeriod)
	}
	if cons.InputDelay != 0.1*cons.ClockPeriod {
		t.Fatalf("input delay should derive from period, got %v", cons.InputDelay)
	}
	// The clock itself stays fatal in lenient mode.
	if _, _, err := ParseWith(strings.NewReader("create_clock -period x [get_ports c]\n"),
		Options{Lenient: true}); err == nil {
		t.Fatal("unparsable period must stay fatal in lenient mode")
	}
	if _, _, err := ParseWith(strings.NewReader("set_load 0.1 [all_outputs]\n"),
		Options{Lenient: true}); err == nil {
		t.Fatal("missing create_clock must stay fatal in lenient mode")
	}
	// A portless clock is tolerated leniently: period recorded, port warned.
	cons, warns, err = ParseWith(strings.NewReader("create_clock -period 1.5\n"), Options{Lenient: true})
	if err != nil {
		t.Fatalf("portless clock should be tolerable: %v", err)
	}
	if len(warns) != 1 || math.Abs(cons.ClockPeriod-1.5e-9) > 1e-18 || len(cons.ClockPorts) != 0 {
		t.Fatalf("portless clock handling: warns=%v period=%v ports=%v",
			warns, cons.ClockPeriod, cons.ClockPorts)
	}
}

// TestExplicitZeroDelayStaysZero guards the writer round trip: an explicit
// 0.0 input delay must not re-trigger the 0.1*period default on re-parse.
func TestExplicitZeroDelayStaysZero(t *testing.T) {
	in := "create_clock -period 1.0 [get_ports ck]\n" +
		"set_input_delay 0.0 -clock ck [all_inputs]\n"
	cons, _, err := ParseWith(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cons.InputDelay != 0 {
		t.Fatalf("explicit zero delay overridden to %v", cons.InputDelay)
	}
	if cons.OutputDelay != 0.1*cons.ClockPeriod {
		t.Fatalf("unset output delay should still derive: %v", cons.OutputDelay)
	}
}
