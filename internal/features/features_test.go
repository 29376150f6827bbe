package features

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

// pathGraphDesign builds a 4-cell path a-b-c-d via 2-pin nets.
func pathGraphDesign(t *testing.T) *netlist.Design {
	t.Helper()
	lib := designs.Lib()
	b := netlist.NewBuilder("path", lib)
	d := b.Design
	inv := lib.Master("INV_X1")
	ids := make([]int, 4)
	for i := range ids {
		inst := b.AddInstance("g"+itoa(i), inv)
		ids[i] = inst.ID
	}
	for i := 1; i < 4; i++ {
		n := b.AddNet("n" + itoa(i))
		b.Connect(n, pinRef(d, ids[i-1], "ZN"))
		b.Connect(n, pinRef(d, ids[i], "A"))
	}
	return build(t, b)
}

func itoa(v int) string { return string(rune('0' + v)) }

func TestExtractPathGraph(t *testing.T) {
	d := pathGraphDesign(t)
	f := Extract(d, Options{})
	if f.NumCells != 4 || f.NumNets != 3 || f.NumPins != 6 {
		t.Fatalf("counts: %+v", f)
	}
	// Path graph: diameter 3, radius 2.
	if f.Diameter != 3 || f.Radius != 2 {
		t.Fatalf("diameter=%v radius=%v", f.Diameter, f.Radius)
	}
	// Middle vertices of P4 have normalized betweenness 2/3 (networkx value).
	if math.Abs(f.Betweenness[1]-2.0/3) > 1e-9 || math.Abs(f.Betweenness[2]-2.0/3) > 1e-9 {
		t.Fatalf("betweenness=%v", f.Betweenness)
	}
	if f.Betweenness[0] != 0 || f.Betweenness[3] != 0 {
		t.Fatalf("end betweenness=%v", f.Betweenness)
	}
	// Degree centrality: ends 1/3, middles 2/3.
	if math.Abs(f.DegreeCentral[0]-1.0/3) > 1e-9 || math.Abs(f.DegreeCentral[1]-2.0/3) > 1e-9 {
		t.Fatalf("degree centrality=%v", f.DegreeCentral)
	}
	// Closeness of end vertex 0: distances 1,2,3 -> 3/6.
	if math.Abs(f.Closeness[0]-0.5) > 1e-9 {
		t.Fatalf("closeness=%v", f.Closeness[0])
	}
	// Path graph has no triangles.
	if f.AvgClustering != 0 {
		t.Fatalf("clustering=%v", f.AvgClustering)
	}
	// Path is 2-colorable.
	if f.GreedyColors != 2 {
		t.Fatalf("colors=%d", f.GreedyColors)
	}
	// Min degree = 1 approximates edge connectivity.
	if f.EdgeConnectivity != 1 {
		t.Fatalf("edge connectivity=%v", f.EdgeConnectivity)
	}
	// Global efficiency for a 4-path: pairs (1,1,1,2,2,3)x2 directions ->
	// mean of 1/d over ordered pairs = (3*1 + 2*0.5 + 1/3)*2 / 12.
	want := (3*1.0 + 2*0.5 + 1.0/3) * 2 / 12
	if math.Abs(f.GlobalEfficiency-want) > 1e-9 {
		t.Fatalf("efficiency=%v want %v", f.GlobalEfficiency, want)
	}
}

func TestTriangleClustering(t *testing.T) {
	lib := designs.Lib()
	b := netlist.NewBuilder("tri", lib)
	d := b.Design
	inv := lib.Master("INV_X1")
	for i := 0; i < 3; i++ {
		b.AddInstance("g"+itoa(i), inv)
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	for i, p := range pairs {
		n := b.AddNet("n" + itoa(i))
		b.Connect(n, pinRef(d, p[0], "ZN"))
		b.Connect(n, pinRef(d, p[1], "A"))
	}
	build(t, b)
	f := Extract(d, Options{})
	for i := 0; i < 3; i++ {
		if f.ClusteringCoef[i] != 1 {
			t.Fatalf("triangle clustering=%v", f.ClusteringCoef)
		}
	}
	if f.Density != 1 {
		t.Fatalf("density=%v", f.Density)
	}
	if f.GreedyColors != 3 {
		t.Fatalf("colors=%d", f.GreedyColors)
	}
}

func TestCellTypeIndex(t *testing.T) {
	lib := designs.Lib()
	cases := map[string]int{
		"INV_X1": 0, "BUF_X1": 1, "CLKBUF_X2": 1, "NAND2_X1": 2,
		"NOR2_X1": 3, "AND2_X1": 4, "OR2_X1": 4, "XOR2_X1": 5,
		"MUX2_X1": 6, "AOI21_X1": 6, "DFF_X1": 7, "RAM32X32": 7,
	}
	b := netlist.NewBuilder("types", lib)
	d := b.Design
	for name := range cases {
		b.AddInstance(name, lib.Master(name))
	}
	build(t, b)
	f := Extract(d, Options{})
	for i, inst := range d.Insts {
		if got, want := f.CellType[i], cases[inst.Name]; got != want {
			t.Errorf("cell type of %s = %d, want %d", inst.Name, got, want)
		}
	}
}

func TestNodeVec(t *testing.T) {
	d := pathGraphDesign(t)
	f := Extract(d, Options{})
	vec := make([]float64, Dim)
	f.NodeVec(1, 1.25, 0.85, vec)
	if vec[0] != 0.85 || vec[1] != 1.25 {
		t.Fatalf("design params: %v %v", vec[0], vec[1])
	}
	if vec[2] != 4 {
		t.Fatalf("numCells slot: %v", vec[2])
	}
	// One-hot: INV -> slot 27.
	if vec[27] != 1 {
		t.Fatalf("one-hot: %v", vec[27:])
	}
	sum := 0.0
	for t2 := 0; t2 < numCellTypes; t2++ {
		sum += vec[27+t2]
	}
	if sum != 1 {
		t.Fatalf("one-hot not exclusive: %v", vec[27:])
	}
}

func TestFanoutBuckets(t *testing.T) {
	lib := designs.Lib()
	b := netlist.NewBuilder("fan", lib)
	d := b.Design
	inv := lib.Master("INV_X1")
	for i := 0; i < 14; i++ {
		b.AddInstance("g"+string(rune('a'+i)), inv)
	}
	// Net with fanout 6 (7 pins).
	n1 := b.AddNet("f6")
	b.Connect(n1, pinRef(d, 0, "ZN"))
	for i := 1; i <= 6; i++ {
		b.Connect(n1, pinRef(d, i, "A"))
	}
	// Net with fanout 12 (13 pins).
	n2 := b.AddNet("f12")
	b.Connect(n2, pinRef(d, 1, "ZN"))
	for i := 2; i <= 13; i++ {
		b.Connect(n2, pinRef(d, i, "A"))
	}
	build(t, b)
	f := Extract(d, Options{})
	if f.NetsFanout5to10 != 1 || f.NetsFanoutGT10 != 1 {
		t.Fatalf("fanout buckets: %d %d", f.NetsFanout5to10, f.NetsFanoutGT10)
	}
	if f.InternalNets != 2 || f.BorderNets != 0 {
		t.Fatalf("internal/border: %d %d", f.InternalNets, f.BorderNets)
	}
}

// TestSampledExtractionStable runs Extract on a graph above sampleCap, so
// distances come from sampled sources, and compares it with the exact
// all-sources pass.
func TestSampledExtractionStable(t *testing.T) {
	b := designs.Generate(designs.TinySpec(61))
	n := len(b.Design.Insts)
	if n <= sampleCap {
		t.Fatalf("%d cells do not exceed sampleCap %d", n, sampleCap)
	}
	f1 := Extract(b.Design, Options{Seed: 1})
	f2 := Extract(b.Design, Options{Seed: 1})
	if f1.Diameter != f2.Diameter || f1.GlobalEfficiency != f2.GlobalEfficiency {
		t.Fatal("sampled extraction not deterministic")
	}
	full := &Features{Betweenness: make([]float64, n), Closeness: make([]float64, n),
		Eccentricity: make([]float64, n)}
	full.computeDistancesAndBetweenness(buildAdjacency(b.Design), 1, n)
	if full.Diameter < f1.Diameter {
		t.Fatal("sampled diameter cannot exceed exact diameter")
	}
}

func TestEmptyDesign(t *testing.T) {
	lib := designs.Lib()
	d := build(t, netlist.NewBuilder("empty", lib))
	f := Extract(d, Options{})
	if f.NumCells != 0 || f.Diameter != 0 {
		t.Fatalf("empty features: %+v", f)
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

// build builds b's design, failing the test on an error.
func build(t testing.TB, b *netlist.Builder) *netlist.Design {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
