package hier

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ppaclust/internal/netlist"
)

func miniLib() *netlist.Library {
	l := netlist.NewLibrary("t")
	m := &netlist.Master{Name: "G", Width: 1, Height: 1}
	m.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 1e-15})
	y := m.AddPin(netlist.MasterPin{Name: "Y", Dir: netlist.DirOutput})
	y.Arcs = []netlist.TimingArc{{From: 0, Kind: netlist.ArcComb, Delay: netlist.Const(1e-12), Slew: netlist.Const(1e-12)}}
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
	nb := netlist.NewBuilder("h", l)
	d := nb.Design
	add := func(name string) *netlist.Instance {
		inst := nb.AddInstance(name, l.Master("G"))
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
			n := nb.AddNet(fmt.Sprintf("n%d", netN))
			netN++
			nb.Connect(n, pinRef(d, ids[i-1], "Y"))
			nb.Connect(n, pinRef(d, ids[i], "A"))
			// Add a chord for density.
			if i >= 2 {
				c := nb.AddNet(fmt.Sprintf("n%d", netN))
				netN++
				nb.Connect(c, pinRef(d, ids[i-2], "Y"))
				nb.Connect(c, pinRef(d, ids[i], "A"))
			}
		}
	}
	connect(aID)
	connect(bID)
	connect(sID)
	// One cross-module net.
	x := nb.AddNet("xab")
	nb.Connect(x, pinRef(d, aID[0], "Y"))
	nb.Connect(x, pinRef(d, bID[0], "A"))
	// Connect sub to its parent module a.
	x2 := nb.AddNet("xas")
	nb.Connect(x2, pinRef(d, aID[k-1], "Y"))
	nb.Connect(x2, pinRef(d, sID[0], "A"))
	return mustBuild(t, nb)
}

func TestBuildFlatDesignFails(t *testing.T) {
	l := miniLib()
	b := netlist.NewBuilder("flat", l)
	d := b.Design
	for i := 0; i < 4; i++ {
		b.AddInstance(fmt.Sprintf("g%d", i), l.Master("G"))
	}
	mustBuild(t, b)
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
	instID := func(name string) int {
		return slices.IndexFunc(d.Insts, func(inst *netlist.Instance) bool { return inst.Name == name })
	}
	instA, instSub, instB := instID("a/g0"), instID("a/sub/g0"), instID("b/g0")
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
	b := netlist.NewBuilder("one", l)
	d := b.Design
	var ids []int
	for i := 0; i < 5; i++ {
		inst := b.AddInstance(fmt.Sprintf("m/g%d", i), l.Master("G"))
		ids = append(ids, inst.ID)
	}
	for i := 1; i < 5; i++ {
		n := b.AddNet(fmt.Sprintf("n%d", i))
		b.Connect(n, pinRef(d, ids[i-1], "Y"))
		b.Connect(n, pinRef(d, ids[i], "A"))
	}
	mustBuild(t, b)
	res, ok := Cluster(d, d.ToHypergraph().H)
	if !ok {
		t.Fatal("single-module design should still cluster (one cluster)")
	}
	if res.Clusters != 1 || res.Level != 1 {
		t.Fatalf("res=%+v", res)
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

// mustBuild builds b's design, failing the test on an error.
func mustBuild(t testing.TB, b *netlist.Builder) *netlist.Design {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
