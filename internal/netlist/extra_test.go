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
	in, _ := d.AddPort("in", DirInput)
	_ = in
	g, _ := d.AddInstance("g", lib.Master("INV"))
	n, _ := d.AddNet("n")
	// Port listed first, but the instance output must win.
	d.Connect(n, PinRef{Inst: -1, Pin: "in"})
	d.Connect(n, PinRef{Inst: g.ID, Pin: "Y"})
	drv, ok := netDriver(d, n)
	if !ok || drv.IsPort() || drv.Pin != "Y" {
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
	a, _ := d.AddPort("a", DirInput)
	a.X, a.Y = 0, 0
	b, _ := d.AddPort("b", DirOutput)
	b.X, b.Y = 3, 4
	n, _ := d.AddNet("n")
	d.Connect(n, PinRef{Inst: -1, Pin: "a"})
	d.Connect(n, PinRef{Inst: -1, Pin: "b"})
	if got := d.NetHPWL(n); math.Abs(got-7) > 1e-12 {
		t.Fatalf("hpwl=%v want 7", got)
	}
}
