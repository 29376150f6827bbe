package flow

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/vpr"
)

func TestClusterMasterAreasMatchShape(t *testing.T) {
	spec := designs.TinySpec(601)
	spec.Macros = 1
	b := designs.Generate(spec)
	d := b.Design.Clone()
	assign := make([]int, len(d.Insts))
	for i := range assign {
		assign[i] = i % 3
	}
	shapes := map[int]vpr.Shape{
		0: {AspectRatio: 1.0, Utilization: 0.8},
		1: {AspectRatio: 1.5, Utilization: 0.75},
		2: {AspectRatio: 0.75, Utilization: 0.9},
	}
	cd, clusterInsts, err := BuildClusteredDesign(d, assign, 3, shapes)
	if err != nil {
		t.Fatal(err)
	}
	// Movable member area per cluster.
	area := make([]float64, 3)
	for i, inst := range d.Insts {
		if !inst.Fixed {
			area[assign[i]] += inst.Master.Area()
		}
	}
	for c := 0; c < 3; c++ {
		m := cd.Insts[clusterInsts[c]].Master
		wantArea := area[c] / shapes[c].Utilization
		if math.Abs(m.Area()-wantArea)/wantArea > 0.01 {
			t.Fatalf("cluster %d area %v want %v", c, m.Area(), wantArea)
		}
		gotAR := m.Height / m.Width
		if math.Abs(gotAR-shapes[c].AspectRatio) > 0.01 {
			t.Fatalf("cluster %d AR %v want %v", c, gotAR, shapes[c].AspectRatio)
		}
	}
}

func TestClusteredNetWeightAccumulates(t *testing.T) {
	lib := designs.Lib()
	d := netlist.NewDesign("w", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 50, Y1: 50}
	inv := lib.Master("INV_X1")
	for i := 0; i < 4; i++ {
		d.AddInstance("g"+string(rune('0'+i)), inv)
	}
	// Two parallel nets between the same cluster pair.
	n1 := d.AddNet("n1")
	d.Connect(n1, pinRef(d, 0, "ZN"))
	d.Connect(n1, pinRef(d, 2, "A"))
	n2 := d.AddNet("n2")
	n2.Weight = 3
	d.Connect(n2, pinRef(d, 1, "ZN"))
	d.Connect(n2, pinRef(d, 3, "A"))
	assign := []int{0, 0, 1, 1}
	cd, _, err := BuildClusteredDesign(d, assign, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Nets) != 1 {
		t.Fatalf("nets=%d want 1 (parallel merge)", len(cd.Nets))
	}
	if cd.Nets[0].Weight != 4 {
		t.Fatalf("merged weight=%v want 4", cd.Nets[0].Weight)
	}
}

func TestClusteredDesignKeepsFloorplan(t *testing.T) {
	b := designs.Generate(designs.TinySpec(602))
	d := b.Design.Clone()
	assign := make([]int, len(d.Insts))
	cd, _, err := BuildClusteredDesign(d, assign, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cd.Core != d.Core || cd.Die != d.Die {
		t.Fatal("floorplan not carried over")
	}
	if cd.RowHeight != d.RowHeight || cd.SiteWidth != d.SiteWidth {
		t.Fatal("row/site geometry lost")
	}
}

// pinRef resolves a fixture pin by name; fixtures name only declared pins.
func pinRef(d *netlist.Design, inst int, name string) netlist.PinRef {
	ref, err := d.PinRefOf(inst, name)
	if err != nil {
		panic(err)
	}
	return ref
}
