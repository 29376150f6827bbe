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
	b := NewBuilder("drv", lib)
	d := b.Design
	in := b.AddPort("in", DirInput)
	_ = in
	g := b.AddInstance("g", lib.Master("INV"))
	n := b.AddNet("n")
	// Port listed first, but the instance output must win.
	b.Connect(n, pinRef(d, -1, "in"))
	b.Connect(n, pinRef(d, g.ID, "Y"))
	build(t, b)
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
	nb := NewBuilder("p", lib)
	d := nb.Design
	a := nb.AddPort("a", DirInput)
	a.X, a.Y = 0, 0
	b := nb.AddPort("b", DirOutput)
	b.X, b.Y = 3, 4
	n := nb.AddNet("n")
	nb.Connect(n, pinRef(d, -1, "a"))
	nb.Connect(n, pinRef(d, -1, "b"))
	build(t, nb)
	if got := d.NetHPWL(n); math.Abs(got-7) > 1e-12 {
		t.Fatalf("hpwl=%v want 7", got)
	}
}
