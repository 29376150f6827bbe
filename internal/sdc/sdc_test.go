package sdc

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ppaclust/internal/sta"
)

func TestWriteParseRoundTrip(t *testing.T) {
	cons := sta.DefaultConstraints(0.8e-9)
	cons.ClockPorts = []string{"clk"}
	var buf bytes.Buffer
	if err := Write(&buf, cons); err != nil {
		t.Fatal(err)
	}
	got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.ClockPeriod-cons.ClockPeriod) > 1e-15 {
		t.Fatalf("period %v != %v", got.ClockPeriod, cons.ClockPeriod)
	}
	if len(got.ClockPorts) != 1 || got.ClockPorts[0] != "clk" {
		t.Fatalf("clock ports %v", got.ClockPorts)
	}
	if math.Abs(got.InputDelay-cons.InputDelay) > 1e-15 ||
		math.Abs(got.OutputDelay-cons.OutputDelay) > 1e-15 {
		t.Fatal("IO delays changed")
	}
	if math.Abs(got.PortCap-cons.PortCap) > 1e-18 {
		t.Fatalf("port cap %v != %v", got.PortCap, cons.PortCap)
	}
	if math.Abs(got.InputSlew-cons.InputSlew) > 1e-15 {
		t.Fatal("input slew changed")
	}
}

func TestParseTypicalFile(t *testing.T) {
	src := `
# constraints for aes
create_clock -name clk -period 0.55 [get_ports clk]
set_input_delay 0.05 -clock clk [all_inputs]
set_output_delay 0.06 -clock clk [all_outputs]
set_load 0.004 [all_outputs]
some_unknown_command -foo bar
`
	cons, _, err := ParseWith(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cons.ClockPeriod-0.55e-9) > 1e-15 {
		t.Fatalf("period=%v", cons.ClockPeriod)
	}
	if cons.ClockPorts[0] != "clk" {
		t.Fatalf("ports=%v", cons.ClockPorts)
	}
	if math.Abs(cons.InputDelay-0.05e-9) > 1e-15 {
		t.Fatalf("input delay=%v", cons.InputDelay)
	}
	if math.Abs(cons.PortCap-4e-15) > 1e-18 {
		t.Fatalf("load=%v", cons.PortCap)
	}
}

func TestParseNoClockFails(t *testing.T) {
	if _, _, err := ParseWith(strings.NewReader("set_load 0.01 [all_outputs]\n"), Options{}); err == nil {
		t.Fatal("expected error without create_clock")
	}
}

func TestDefaultsDerived(t *testing.T) {
	cons, _, err := ParseWith(strings.NewReader("create_clock -name clk -period 1.0 [get_ports clk]\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cons.InputDelay-0.1e-9) > 1e-15 || math.Abs(cons.OutputDelay-0.1e-9) > 1e-15 {
		t.Fatalf("derived delays: %v %v", cons.InputDelay, cons.OutputDelay)
	}
}
