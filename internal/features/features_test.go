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
	d := netlist.NewDesign("path", lib)
	inv := lib.Master("INV_X1")
	ids := make([]int, 4)
	for i := range ids {
		inst, err := d.AddInstance("g"+itoa(i), inv)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = inst.ID
	}
	for i := 1; i < 4; i++ {
		n, _ := d.AddNet("n" + itoa(i))
		d.Connect(n, netlist.PinRef{Inst: ids[i-1], Pin: "ZN"})
		d.Connect(n, netlist.PinRef{Inst: ids[i], Pin: "A"})
	}
	return d
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
	d := netlist.NewDesign("tri", lib)
	inv := lib.Master("INV_X1")
	for i := 0; i < 3; i++ {
		if _, err := d.AddInstance("g"+itoa(i), inv); err != nil {
			t.Fatal(err)
		}
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	for i, p := range pairs {
		n, _ := d.AddNet("n" + itoa(i))
		d.Connect(n, netlist.PinRef{Inst: p[0], Pin: "ZN"})
		d.Connect(n, netlist.PinRef{Inst: p[1], Pin: "A"})
	}
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
	for name, want := range cases {
		if got := cellTypeIndex(lib.Master(name)); got != want {
			t.Errorf("cellTypeIndex(%s)=%d want %d", name, got, want)
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
	d := netlist.NewDesign("fan", lib)
	inv := lib.Master("INV_X1")
	for i := 0; i < 14; i++ {
		if _, err := d.AddInstance("g"+string(rune('a'+i)), inv); err != nil {
			t.Fatal(err)
		}
	}
	// Net with fanout 6 (7 pins).
	n1, _ := d.AddNet("f6")
	d.Connect(n1, netlist.PinRef{Inst: 0, Pin: "ZN"})
	for i := 1; i <= 6; i++ {
		d.Connect(n1, netlist.PinRef{Inst: i, Pin: "A"})
	}
	// Net with fanout 12 (13 pins).
	n2, _ := d.AddNet("f12")
	d.Connect(n2, netlist.PinRef{Inst: 1, Pin: "ZN"})
	for i := 2; i <= 13; i++ {
		d.Connect(n2, netlist.PinRef{Inst: i, Pin: "A"})
	}
	f := Extract(d, Options{})
	if f.NetsFanout5to10 != 1 || f.NetsFanoutGT10 != 1 {
		t.Fatalf("fanout buckets: %d %d", f.NetsFanout5to10, f.NetsFanoutGT10)
	}
	if f.InternalNets != 2 || f.BorderNets != 0 {
		t.Fatalf("internal/border: %d %d", f.InternalNets, f.BorderNets)
	}
}

func TestSampledExtractionStable(t *testing.T) {
	b := designs.Generate(designs.TinySpec(61))
	f1 := Extract(b.Design, Options{SampleCap: 32, Seed: 1})
	f2 := Extract(b.Design, Options{SampleCap: 32, Seed: 1})
	if f1.Diameter != f2.Diameter || f1.GlobalEfficiency != f2.GlobalEfficiency {
		t.Fatal("sampled extraction not deterministic")
	}
	full := Extract(b.Design, Options{SampleCap: 1 << 20})
	if full.Diameter < f1.Diameter {
		t.Fatal("sampled diameter cannot exceed exact diameter")
	}
}

func TestEmptyDesign(t *testing.T) {
	lib := designs.Lib()
	d := netlist.NewDesign("empty", lib)
	f := Extract(d, Options{})
	if f.NumCells != 0 || f.Diameter != 0 {
		t.Fatalf("empty features: %+v", f)
	}
}
