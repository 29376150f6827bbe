package sta

import (
	"testing"

	"ppaclust/internal/netlist"
)

func TestDRVCleanDesign(t *testing.T) {
	d := combChain(t, 3)
	a := New(d, consFor(1e-9))
	rep := a.DRV()
	if rep.CheckedDrivers == 0 {
		t.Fatal("no drivers checked")
	}
	if rep.MaxCapViolations != 0 || rep.MaxSlewViolations != 0 {
		t.Fatalf("clean design reports violations: %+v", rep)
	}
	if rep.WorstCapRatio <= 0 || rep.WorstCapRatio >= 1 {
		t.Fatalf("worst cap ratio=%v", rep.WorstCapRatio)
	}
}

func TestDRVMaxCapViolation(t *testing.T) {
	l := lib()
	// Give INV a tiny max cap so any load violates.
	inv := l.Master("INV")
	inv.Pin("Y").MaxCap = 0.1e-15
	d := netlist.NewDesign("v", l)
	g0, _ := d.AddInstance("g0", inv)
	g1, _ := d.AddInstance("g1", inv)
	in, _ := d.AddPort("in", netlist.DirInput)
	in.X, in.Y = 0, 0
	n0, _ := d.AddNet("n0")
	d.Connect(n0, netlist.PinRef{Inst: -1, Pin: "in"})
	d.Connect(n0, netlist.PinRef{Inst: g0.ID, Pin: "A"})
	n1, _ := d.AddNet("n1")
	d.Connect(n1, netlist.PinRef{Inst: g0.ID, Pin: "Y"})
	_ = n1
	d.Connect(n1, netlist.PinRef{Inst: g1.ID, Pin: "A"})
	a := New(d, consFor(1e-9))
	rep := a.DRV()
	if rep.MaxCapViolations != 1 {
		t.Fatalf("want 1 max-cap violation, got %+v", rep)
	}
	if rep.WorstCapRatio <= 1 {
		t.Fatalf("ratio=%v", rep.WorstCapRatio)
	}
}
