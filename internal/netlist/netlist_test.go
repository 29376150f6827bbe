package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// testLib builds a minimal two-cell library used across the package tests.
func testLib() *Library {
	lib := NewLibrary("test")
	inv := &Master{Name: "INV", Class: ClassCore, Width: 1, Height: 2, Leakage: 1e-9}
	inv.AddPin(MasterPin{Name: "A", Dir: DirInput, Cap: 1e-15})
	out := inv.AddPin(MasterPin{Name: "Y", Dir: DirOutput, MaxCap: 50e-15})
	out.Arcs = []TimingArc{{From: 0, Kind: ArcComb, Delay: Const(10e-12), Slew: Const(5e-12), Energy: 1e-15}}
	if err := lib.AddMaster(inv); err != nil {
		panic(err)
	}
	dff := &Master{Name: "DFF", Class: ClassCore, Width: 3, Height: 2, Leakage: 3e-9}
	dff.AddPin(MasterPin{Name: "D", Dir: DirInput, Cap: 1.2e-15,
		Arcs: []TimingArc{{From: 1, Kind: ArcSetup, Delay: Const(20e-12)}}})
	dff.AddPin(MasterPin{Name: "CK", Dir: DirInput, Cap: 0.8e-15, Clock: true})
	q := dff.AddPin(MasterPin{Name: "Q", Dir: DirOutput, MaxCap: 60e-15})
	q.Arcs = []TimingArc{{From: 1, Kind: ArcClkToQ, Delay: Const(40e-12), Slew: Const(8e-12), Energy: 2e-15}}
	if err := lib.AddMaster(dff); err != nil {
		panic(err)
	}
	return lib
}

// chainDesign builds port(in) -> INV x n -> DFF -> port(out) with a clock.
func chainDesign(t *testing.T, n int) *Design {
	t.Helper()
	return build(t, chainBuilder(n))
}

// chainBuilder records chainDesign's design, unbuilt.
func chainBuilder(n int) *Builder {
	lib := testLib()
	b := NewBuilder("chain", lib)
	d := b.Design
	d.Die = Rect{0, 0, 100, 100}
	d.Core = Rect{5, 5, 95, 95}
	in := b.AddPort("in", DirInput)
	in.X, in.Y, in.Placed = 0, 50, true
	outp := b.AddPort("out", DirOutput)
	outp.X, outp.Y, outp.Placed = 100, 50, true
	clk := b.AddPort("clk", DirInput)
	clk.X, clk.Y, clk.Placed = 50, 0, true

	prev := pinRef(d, -1, "in")
	for i := 0; i < n; i++ {
		inst := b.AddInstance(fmt.Sprintf("u_core/inv%d", i), lib.Master("INV"))
		inst.X, inst.Y, inst.Placed = float64(10+i*5), 50, true
		net := b.AddNet(fmt.Sprintf("n%d", i))
		b.Connect(net, prev)
		b.Connect(net, pinRef(d, inst.ID, "A"))
		prev = pinRef(d, inst.ID, "Y")
	}
	ff := b.AddInstance("u_core/ff", lib.Master("DFF"))
	ff.X, ff.Y, ff.Placed = 80, 50, true
	dNet := b.AddNet("dnet")
	b.Connect(dNet, prev)
	b.Connect(dNet, pinRef(d, ff.ID, "D"))
	clkNet := b.AddNet("clknet")
	clkNet.Clock = true
	b.Connect(clkNet, pinRef(d, -1, "clk"))
	b.Connect(clkNet, pinRef(d, ff.ID, "CK"))
	qNet := b.AddNet("qnet")
	b.Connect(qNet, pinRef(d, ff.ID, "Q"))
	b.Connect(qNet, pinRef(d, -1, "out"))
	return b
}

// build builds b's design, failing the test on an error.
func build(t testing.TB, b *Builder) *Design {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTableLookup(t *testing.T) {
	tab := Table{
		Slews:  []float64{1, 2},
		Loads:  []float64{10, 20},
		Values: [][]float64{{100, 200}, {300, 400}},
	}
	cases := []struct {
		slew, load, want float64
	}{
		{1, 10, 100},
		{2, 20, 400},
		{1.5, 15, 250},
		{0, 0, 100},    // clamp low
		{99, 99, 400},  // clamp high
		{1, 15, 150},   // edge interp
		{1.5, 10, 200}, // edge interp
	}
	for _, c := range cases {
		if got := tab.Lookup(c.slew, c.load); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Lookup(%v,%v)=%v want %v", c.slew, c.load, got, c.want)
		}
	}
	cst := Const(7)
	if cst.Lookup(123, 456) != 7 {
		t.Error("const table should ignore indices")
	}
}

func TestMasterBasics(t *testing.T) {
	lib := testLib()
	inv := lib.Master("INV")
	if inv == nil || inv.PinIndex("A") != 0 || inv.PinIndex("Y") != 1 {
		t.Fatal("INV pins missing")
	}
	if inv.PinIndex("Z") != -1 {
		t.Fatal("unexpected pin Z")
	}
	if inv.IsSequential() {
		t.Fatal("INV should not be sequential")
	}
	if !lib.Master("DFF").IsSequential() {
		t.Fatal("DFF should be sequential")
	}
	if inv.Area() != 2 {
		t.Fatalf("area=%v", inv.Area())
	}
	if err := lib.AddMaster(&Master{Name: "INV"}); err == nil {
		t.Fatal("expected duplicate master error")
	}
}

func TestDesignConstruction(t *testing.T) {
	d := chainDesign(t, 3)
	// Objects are numbered in creation order; no name index stands beside
	// the slices.
	if len(d.Insts) != 4 || len(d.Nets) != 6 || len(d.Ports) != 3 {
		t.Fatalf("%d insts, %d nets, %d ports", len(d.Insts), len(d.Nets), len(d.Ports))
	}
	for i, inst := range d.Insts {
		if inst.ID != i {
			t.Fatalf("instance %d has ID %d", i, inst.ID)
		}
	}
	for i, n := range d.Nets {
		if n.ID != i {
			t.Fatalf("net %d has ID %d", i, n.ID)
		}
	}
	if d.Insts[1].Name != "u_core/inv1" || d.Nets[3].Name != "dnet" || d.Ports[2].Name != "clk" {
		t.Fatalf("names out of creation order: %s %s %s", d.Insts[1].Name, d.Nets[3].Name, d.Ports[2].Name)
	}
	if got := d.Insts[0].HierPath(); len(got) != 1 || got[0] != "u_core" {
		t.Fatalf("hier path=%v", got)
	}
}

func TestDriver(t *testing.T) {
	b := chainBuilder(2)
	undriven := b.AddNet("floating")
	d := build(t, b)
	// n1 is driven by inv0/Y.
	n1 := netNamed(d, "n1")
	drv, ok := netDriver(d, n1)
	if !ok || drv.IsPort() || d.Insts[drv.Inst].Name != "u_core/inv0" || d.PinName(drv) != "Y" {
		t.Fatalf("driver=%+v ok=%v", drv, ok)
	}
	// n0 is driven by the input port.
	n0 := netNamed(d, "n0")
	drv, ok = netDriver(d, n0)
	if !ok || !drv.IsPort() || d.PinName(drv) != "in" {
		t.Fatalf("driver=%+v ok=%v", drv, ok)
	}
	if _, ok := netDriver(d, undriven); ok {
		t.Fatal("floating net should have no driver")
	}
}

func TestInstNets(t *testing.T) {
	d := chainDesign(t, 2)
	cm := d.Compact()
	deg := func(id int) int { return int(cm.InstStart[id+1] - cm.InstStart[id]) }
	if inv0 := instNamed(d, "u_core/inv0"); deg(inv0.ID) != 2 {
		t.Fatalf("inv0 has %d nets, want 2", deg(inv0.ID))
	}
	if ff := instNamed(d, "u_core/ff"); deg(ff.ID) != 3 {
		t.Fatalf("ff has %d nets, want 3", deg(ff.ID))
	}
}

func TestHPWL(t *testing.T) {
	b := chainBuilder(1)
	single := b.AddNet("single")
	b.Connect(single, pinRef(b.Design, 0, "Y"))
	d := build(t, b)
	// n0: port(0,50) to inv0 center (10.5, 51) -> 10.5 + 1.
	n0 := netNamed(d, "n0")
	want := 10.5 + 1.0
	if got := d.NetHPWL(n0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("hpwl(n0)=%v want %v", got, want)
	}
	if d.HPWL() <= 0 {
		t.Fatal("total HPWL should be positive")
	}
	if d.NetHPWL(single) != 0 {
		t.Fatal("single-pin net HPWL should be 0")
	}
}

func TestPinOffsets(t *testing.T) {
	lib := testLib()
	m := &Master{Name: "OFF", Width: 4, Height: 4}
	m.AddPin(MasterPin{Name: "P", Dir: DirInput, OffsetX: 1, OffsetY: 3})
	if err := lib.AddMaster(m); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder("t", lib)
	d := b.Design
	inst := b.AddInstance("u1", m)
	inst.X, inst.Y = 10, 20
	n := b.AddNet("n")
	b.Connect(n, pinRef(d, inst.ID, "P"))
	build(t, b)
	var pos Positions
	pos.Gather(d)
	x, y := d.Compact().PinXY(&pos, 0)
	if x != 11 || y != 23 {
		t.Fatalf("pin pos=(%v,%v)", x, y)
	}
}

func TestToHypergraph(t *testing.T) {
	d := chainDesign(t, 3)
	view := d.ToHypergraph()
	h := view.H
	if h.NumVertices() != 4 { // 3 inv + 1 dff
		t.Fatalf("V=%d", h.NumVertices())
	}
	// Nets n0 (port+inv0) and qnet (ff+port) have <2 instance pins -> dropped.
	// clknet also has only one instance pin -> dropped.
	// Kept: n1, n2, dnet.
	if h.NumEdges() != 3 {
		t.Fatalf("E=%d", h.NumEdges())
	}
	for e := 0; e < h.NumEdges(); e++ {
		netID := view.NetOfEdge[e]
		if view.EdgeOfNet[netID] != e {
			t.Fatalf("edge/net maps inconsistent at e=%d", e)
		}
	}
	if view.EdgeOfNet[netNamed(d, "n0").ID] != -1 {
		t.Fatal("n0 should not map to an edge")
	}
	// Vertex weight equals instance area.
	if h.VertexWeight(0) != 2 {
		t.Fatalf("w0=%v", h.VertexWeight(0))
	}
}

// TestValidateCatchesBadRefs checks that a pin reference out of range is a
// Build error, naming the net and the reference: a
// master pin index past the cell's pins, a port index past the port list,
// an instance past the instance list.
func TestValidateCatchesBadRefs(t *testing.T) {
	lib := testLib()
	for _, tc := range []struct {
		name string
		ref  PinRef
		want []string
	}{
		{"master pin", PinRef{Inst: 0, Pin: 7}, []string{`"n"`, "pin 7 of u1", "INV"}},
		{"negative master pin", PinRef{Inst: 0, Pin: -2}, []string{`"n"`, "pin -2 of u1"}},
		{"port", PinRef{Inst: -1, Pin: 3}, []string{`"n"`, "port 3 of 0"}},
		{"instance", PinRef{Inst: 5, Pin: 0}, []string{`"n"`, "instance 5 of 1"}},
	} {
		b := NewBuilder("bad", lib)
		d := b.Design
		b.AddInstance("u1", lib.Master("INV"))
		n := b.AddNet("n")
		b.Connect(n, pinRef(d, 0, "Y"))
		b.Connect(n, tc.ref)
		_, err := b.Build()
		if err == nil {
			t.Fatalf("%s: unresolved pin built a design", tc.name)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, w)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	d := chainDesign(t, 2)
	c := d.Clone()
	c.Insts[0].X = 999
	c.Nets[0].Weight = 42
	if d.Insts[0].X == 999 || d.Nets[0].Weight == 42 {
		t.Fatal("clone shares state with original")
	}
	if c.Insts[1].Name != "u_core/inv1" || c.Nets[2].Name != "dnet" || c.Ports[2].Name != "clk" {
		t.Fatal("clone reordered the design")
	}
	if math.Abs(c.HPWL()-d.HPWL()) > 1e-9 {
		// inv0 moved, HPWL must differ
		return
	}
	t.Fatal("expected HPWL to change after moving a clone instance")
}

func TestStats(t *testing.T) {
	d := chainDesign(t, 3)
	s := d.Stats()
	if s.Insts != 4 || s.Nets != 6 || s.Ports != 3 || s.Seq != 1 || s.Macros != 0 {
		t.Fatalf("stats=%+v", s)
	}
	if s.Area != 3*2+6 {
		t.Fatalf("area=%v", s.Area)
	}
}

func TestUtilization(t *testing.T) {
	d := chainDesign(t, 3)
	want := d.TotalCellArea() / d.Core.Area()
	if got := d.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("util=%v want %v", got, want)
	}
	var empty Design
	if empty.Utilization() != 0 {
		t.Fatal("empty design utilization should be 0")
	}
}

func TestPropertyTableLookupWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nl := 2+rng.Intn(4), 2+rng.Intn(4)
		tab := Table{Slews: make([]float64, ns), Loads: make([]float64, nl)}
		for i := range tab.Slews {
			tab.Slews[i] = float64(i) + rng.Float64()*0.5
		}
		for j := range tab.Loads {
			tab.Loads[j] = float64(j) + rng.Float64()*0.5
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		tab.Values = make([][]float64, ns)
		for i := range tab.Values {
			tab.Values[i] = make([]float64, nl)
			for j := range tab.Values[i] {
				v := rng.Float64() * 100
				tab.Values[i][j] = v
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		// Bilinear interpolation of a clamped table never leaves [min,max].
		for k := 0; k < 30; k++ {
			s := rng.Float64()*10 - 2
			l := rng.Float64()*10 - 2
			v := tab.Lookup(s, l)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHPWLTranslationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lib := testLib()
		b := NewBuilder("p", lib)
		d := b.Design
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			inst := b.AddInstance(fmt.Sprintf("u%d", i), lib.Master("INV"))
			inst.X, inst.Y = rng.Float64()*100, rng.Float64()*100
		}
		for e := 0; e < n; e++ {
			net := b.AddNet(fmt.Sprintf("n%d", e))
			k := 2 + rng.Intn(3)
			for j := 0; j < k; j++ {
				b.Connect(net, pinRef(d, rng.Intn(n), "A"))
			}
		}
		build(t, b)
		before := d.HPWL()
		dx, dy := rng.Float64()*50, rng.Float64()*50
		for _, inst := range d.Insts {
			inst.X += dx
			inst.Y += dy
		}
		return math.Abs(d.HPWL()-before) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// instNamed finds a fixture instance by name.
func instNamed(d *Design, name string) *Instance {
	for _, inst := range d.Insts {
		if inst.Name == name {
			return inst
		}
	}
	panic("no instance " + name)
}

// netNamed finds a fixture net by name.
func netNamed(d *Design, name string) *Net {
	for _, n := range d.Nets {
		if n.Name == name {
			return n
		}
	}
	panic("no net " + name)
}

// pinRef resolves a fixture pin by name, a port when inst < 0; fixtures
// name only declared pins.
func pinRef(d *Design, inst int, name string) PinRef {
	if inst < 0 {
		for i, p := range d.Ports {
			if p.Name == name {
				return PinRef{Inst: -1, Pin: i}
			}
		}
		panic("no port " + name)
	}
	ref, err := d.PinRefOf(inst, name)
	if err != nil {
		panic(err)
	}
	return ref
}
