package hier

import (
	"fmt"
	"math"
	"testing"

	"ppaclust/internal/netlist"
)

func miniLib() *netlist.Library {
	l := netlist.NewLibrary("t")
	m := &netlist.Master{Name: "G", Width: 1, Height: 1}
	m.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 1e-15})
	y := m.AddPin(netlist.MasterPin{Name: "Y", Dir: netlist.DirOutput})
	y.Arcs = []netlist.TimingArc{{From: "A", Kind: netlist.ArcComb, Delay: netlist.Const(1e-12), Slew: netlist.Const(1e-12)}}
	if err := l.AddMaster(m); err != nil {
		panic(err)
	}
	return l
}

// hierDesign: two modules a and b, each with k instances densely connected
// internally; one net between the modules. Module a also has a submodule
// a/sub with k instances (making the tree unbalanced, exercising
// levelization).
func hierDesign(t *testing.T, k int) *netlist.Design {
	t.Helper()
	l := miniLib()
	d := netlist.NewDesign("h", l)
	add := func(name string) *netlist.Instance {
		inst, err := d.AddInstance(name, l.Master("G"))
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	var aID, bID, sID []int
	for i := 0; i < k; i++ {
		aID = append(aID, add(fmt.Sprintf("a/g%d", i)).ID)
		bID = append(bID, add(fmt.Sprintf("b/g%d", i)).ID)
		sID = append(sID, add(fmt.Sprintf("a/sub/g%d", i)).ID)
	}
	netN := 0
	connect := func(ids []int) {
		for i := 1; i < len(ids); i++ {
			n, err := d.AddNet(fmt.Sprintf("n%d", netN))
			if err != nil {
				t.Fatal(err)
			}
			netN++
			d.Connect(n, netlist.PinRef{Inst: ids[i-1], Pin: "Y"})
			d.Connect(n, netlist.PinRef{Inst: ids[i], Pin: "A"})
			// Add a chord for density.
			if i >= 2 {
				c, _ := d.AddNet(fmt.Sprintf("n%d", netN))
				netN++
				d.Connect(c, netlist.PinRef{Inst: ids[i-2], Pin: "Y"})
				d.Connect(c, netlist.PinRef{Inst: ids[i], Pin: "A"})
			}
		}
	}
	connect(aID)
	connect(bID)
	connect(sID)
	// One cross-module net.
	x, _ := d.AddNet("xab")
	d.Connect(x, netlist.PinRef{Inst: aID[0], Pin: "Y"})
	d.Connect(x, netlist.PinRef{Inst: bID[0], Pin: "A"})
	// Connect sub to its parent module a.
	x2, _ := d.AddNet("xas")
	d.Connect(x2, netlist.PinRef{Inst: aID[k-1], Pin: "Y"})
	d.Connect(x2, netlist.PinRef{Inst: sID[0], Pin: "A"})
	return d
}

func TestBuildFlatDesignFails(t *testing.T) {
	l := miniLib()
	d := netlist.NewDesign("flat", l)
	for i := 0; i < 4; i++ {
		if _, err := d.AddInstance(fmt.Sprintf("g%d", i), l.Master("G")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := build(d); ok {
		t.Fatal("flat design should not produce a dendrogram")
	}
	if _, ok := Cluster(d, d.ToHypergraph().H); ok {
		t.Fatal("flat design clustering should report !ok")
	}
}

func TestBuildLevelsAndLevelize(t *testing.T) {
	d := hierDesign(t, 4)
	dg, ok := build(d)
	if !ok {
		t.Fatal("expected dendrogram")
	}
	// Scopes: a (with insts + child sub -> mixed, splits), b, a/sub.
	// Leaf levels: b's insts at level 1 originally -> replicated to levelMax.
	if dg.levelMax < 2 {
		t.Fatalf("levelMax=%d want >=2", dg.levelMax)
	}
	// After levelization, every instance-bearing node is a leaf at levelMax.
	for v := 0; v < len(dg.parent); v++ {
		if len(dg.insts[v]) > 0 {
			if len(dg.children[v]) != 0 {
				t.Fatalf("node %d holds instances but has children", v)
			}
			if dg.level[v] != dg.levelMax {
				t.Fatalf("leaf node %d at level %d != levelMax %d", v, dg.level[v], dg.levelMax)
			}
		}
	}
}

func TestClusteringAtLevelCoversAllInstances(t *testing.T) {
	d := hierDesign(t, 3)
	dg, _ := build(d)
	for k := 0; k <= dg.levelMax; k++ {
		assign := dg.clusteringAtLevel(k)
		if len(assign) != len(d.Insts) {
			t.Fatalf("level %d: %d assignments for %d insts", k, len(assign), len(d.Insts))
		}
	}
	// Level 0 is a single cluster (the root).
	a0 := dg.clusteringAtLevel(0)
	for _, c := range a0 {
		if c != a0[0] {
			t.Fatal("level 0 should be one cluster")
		}
	}
	// Level 1 separates module a (incl. sub) from module b.
	a1 := dg.clusteringAtLevel(1)
	instA := d.Instance("a/g0").ID
	instSub := d.Instance("a/sub/g0").ID
	instB := d.Instance("b/g0").ID
	if a1[instA] != a1[instSub] {
		t.Fatal("level 1: a and a/sub should share a cluster")
	}
	if a1[instA] == a1[instB] {
		t.Fatal("level 1: a and b should be separate")
	}
	// Level 2 separates a/sub from a's own instances.
	a2 := dg.clusteringAtLevel(2)
	if a2[instA] == a2[instSub] {
		t.Fatal("level 2: a/<insts> and a/sub should be separate")
	}
}

func TestClusterSelectsInformativeLevel(t *testing.T) {
	d := hierDesign(t, 6)
	res, ok := Cluster(d, d.ToHypergraph().H)
	if !ok {
		t.Fatal("expected clustering")
	}
	if res.Level < 1 {
		t.Fatalf("level=%d", res.Level)
	}
	if res.Clusters < 2 {
		t.Fatalf("clusters=%d want >=2", res.Clusters)
	}
	if math.IsInf(res.RAvg, 0) || math.IsNaN(res.RAvg) {
		t.Fatalf("RAvg=%v", res.RAvg)
	}
	if len(res.Scores) == 0 {
		t.Fatal("no level scores recorded")
	}
	// The chosen level's score must be the minimum of all evaluated scores.
	for _, s := range res.Scores {
		if s.RAvg < res.RAvg {
			t.Fatalf("level %d has better score %v than chosen %v", s.Level, s.RAvg, res.RAvg)
		}
	}
	// The dense-module structure should beat a random split: compare with a
	// round-robin assignment of the same cluster count.
	h := d.ToHypergraph().H
	rr := make([]int, len(d.Insts))
	for i := range rr {
		rr[i] = i % res.Clusters
	}
	if h.WeightedAvgRent(res.Assign) >= h.WeightedAvgRent(rr) {
		t.Fatal("hierarchy clustering should beat round-robin on Rent")
	}
}

func TestSingleModuleDesign(t *testing.T) {
	// All instances under one scope: levelMax==1, only level 1 evaluated.
	l := miniLib()
	d := netlist.NewDesign("one", l)
	var ids []int
	for i := 0; i < 5; i++ {
		inst, _ := d.AddInstance(fmt.Sprintf("m/g%d", i), l.Master("G"))
		ids = append(ids, inst.ID)
	}
	for i := 1; i < 5; i++ {
		n, _ := d.AddNet(fmt.Sprintf("n%d", i))
		d.Connect(n, netlist.PinRef{Inst: ids[i-1], Pin: "Y"})
		d.Connect(n, netlist.PinRef{Inst: ids[i], Pin: "A"})
	}
	res, ok := Cluster(d, d.ToHypergraph().H)
	if !ok {
		t.Fatal("single-module design should still cluster (one cluster)")
	}
	if res.Clusters != 1 || res.Level != 1 {
		t.Fatalf("res=%+v", res)
	}
}
