package lef

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

func TestWriteParseRoundTrip(t *testing.T) {
	lib := designs.Lib()
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	got := netlist.NewLibrary("parsed")
	names, _, err := ParseWith(bytes.NewReader(buf.Bytes()), got, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(lib.MasterNames()) {
		t.Fatalf("macros %d != %d", len(names), len(lib.MasterNames()))
	}
	for _, name := range lib.MasterNames() {
		om := lib.Master(name)
		gm := got.Master(name)
		if gm == nil {
			t.Fatalf("macro %s lost", name)
		}
		if math.Abs(gm.Width-om.Width) > 1e-4 || math.Abs(gm.Height-om.Height) > 1e-4 {
			t.Fatalf("%s size %vx%v != %vx%v", name, gm.Width, gm.Height, om.Width, om.Height)
		}
		if gm.Class != om.Class {
			t.Fatalf("%s class mismatch", name)
		}
		if len(gm.Pins) != len(om.Pins) {
			t.Fatalf("%s pins %d != %d", name, len(gm.Pins), len(om.Pins))
		}
		for pi := range om.Pins {
			op := &om.Pins[pi]
			gp := gm.Pin(op.Name)
			if gp == nil || gp.Dir != op.Dir || gp.Clock != op.Clock {
				t.Fatalf("%s pin %s mismatch", name, op.Name)
			}
			if gp.OffsetX != op.OffsetX || gp.OffsetY != op.OffsetY {
				t.Fatalf("%s pin %s offsets lost", name, op.Name)
			}
		}
	}
}

func TestParseIntoExistingLibraryMerges(t *testing.T) {
	// Liberty-then-LEF order: LEF must update geometry of existing masters.
	lib := netlist.NewLibrary("x")
	m := &netlist.Master{Name: "INV_X1"}
	m.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 5e-15})
	if err := lib.AddMaster(m); err != nil {
		t.Fatal(err)
	}
	src := `MACRO INV_X1
  CLASS CORE ;
  SIZE 0.38 BY 1.4 ;
  PIN A
    DIRECTION INPUT ;
  END A
END INV_X1`
	if _, _, err := ParseWith(strings.NewReader(src), lib, Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Width != 0.38 || m.Height != 1.4 {
		t.Fatalf("geometry not merged: %v x %v", m.Width, m.Height)
	}
	if m.Pin("A").Cap != 5e-15 {
		t.Fatal("electrical data clobbered")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"MACRO\n",
		"MACRO M\nSIZE 1 ;\nEND M",
		"DIRECTION INPUT ;",
		"CLASS CORE ;",
	}
	for _, src := range cases {
		lib := netlist.NewLibrary("x")
		if _, _, err := ParseWith(strings.NewReader(src), lib, Options{}); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}
