package netlist

import (
	"math"
	"testing"
)

func TestTableSinglePoint(t *testing.T) {
	tab := Table{Slews: []float64{1}, Loads: []float64{2}, Values: [][]float64{{42}}}
	if tab.Lookup(0, 0) != 42 || tab.Lookup(100, 100) != 42 {
		t.Fatal("single-point table should be constant")
	}
	var empty Table
	if empty.Lookup(1, 1) != 0 {
		t.Fatal("empty table should read 0")
	}
}

func TestDriverPrefersOutputOverInputPort(t *testing.T) {
	lib := testLib()
	d := NewDesign("drv", lib)
	in := d.AddPort("in", DirInput)
	_ = in
	g := d.AddInstance("g", lib.Master("INV"))
	n := d.AddNet("n")
	// Port listed first, but the instance output must win.
	d.Connect(n, pinRef(d, -1, "in"))
	d.Connect(n, pinRef(d, g.ID, "Y"))
	drv, ok := netDriver(d, n)
	if !ok || drv.IsPort() || d.PinName(drv) != "Y" {
		t.Fatalf("driver=%+v", drv)
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{X0: 1, Y0: 2, X1: 5, Y1: 10}
	if r.W() != 4 || r.H() != 8 || r.Area() != 32 {
		t.Fatal("rect dims")
	}
}

func TestNetHPWLWithPortOnly(t *testing.T) {
	lib := testLib()
	d := NewDesign("p", lib)
	a := d.AddPort("a", DirInput)
	a.X, a.Y = 0, 0
	b := d.AddPort("b", DirOutput)
	b.X, b.Y = 3, 4
	n := d.AddNet("n")
	d.Connect(n, pinRef(d, -1, "a"))
	d.Connect(n, pinRef(d, -1, "b"))
	if got := d.NetHPWL(n); math.Abs(got-7) > 1e-12 {
		t.Fatalf("hpwl=%v want 7", got)
	}
}
