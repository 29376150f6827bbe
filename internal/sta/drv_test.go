package sta

import (
	"testing"

	"ppaclust/internal/netlist"
)

func TestDRVCleanDesign(t *testing.T) {
	d := combChain(t, 3)
	a := New(d, DefaultConstraints(1e-9))
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
	masterPin(inv, "Y").MaxCap = 0.1e-15
	d := netlist.NewDesign("v", l)
	g0 := d.AddInstance("g0", inv)
	g1 := d.AddInstance("g1", inv)
	in := d.AddPort("in", netlist.DirInput)
	in.X, in.Y = 0, 0
	n0 := d.AddNet("n0")
	d.Connect(n0, pinRef(d, -1, "in"))
	d.Connect(n0, pinRef(d, g0.ID, "A"))
	n1 := d.AddNet("n1")
	d.Connect(n1, pinRef(d, g0.ID, "Y"))
	_ = n1
	d.Connect(n1, pinRef(d, g1.ID, "A"))
	a := New(d, DefaultConstraints(1e-9))
	rep := a.DRV()
	if rep.MaxCapViolations != 1 {
		t.Fatalf("want 1 max-cap violation, got %+v", rep)
	}
	if rep.WorstCapRatio <= 1 {
		t.Fatalf("ratio=%v", rep.WorstCapRatio)
	}
}
