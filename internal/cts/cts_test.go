package cts

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
	"ppaclust/internal/sta"
)

// clockNet finds a generated design's clock net, "clk".
func clockNet(d *netlist.Design) *netlist.Net {
	for _, n := range d.Nets {
		if n.Name == "clk" {
			return n
		}
	}
	return nil
}

func placedBench(t *testing.T, seed int64) (*netlist.Design, *netlist.Net, Options) {
	t.Helper()
	b := designs.Generate(designs.TinySpec(seed))
	place.Global(b.Design, place.Options{Seed: seed})
	clk := clockNet(b.Design)
	if clk == nil {
		t.Fatal("no clock net")
	}
	opt := Options{BufMaster: b.Design.Lib.Master("CLKBUF_X2")}
	return b.Design, clk, opt
}

func TestSynthesizeCoversAllSinks(t *testing.T) {
	d, clk, opt := placedBench(t, 41)
	res := Synthesize(d, clk, opt)
	want := 0
	for _, pr := range clk.Pins {
		if !pr.IsPort() {
			want++
		}
	}
	if len(res.ArrivalList) != want {
		t.Fatalf("arrivals=%d want %d", len(res.ArrivalList), want)
	}
	seen := map[netlist.PinRef]bool{}
	for _, a := range res.ArrivalList {
		pin := a.Pin
		if seen[pin] {
			t.Fatalf("sink %v has two arrivals", pin)
		}
		seen[pin] = true
		if a.T <= 0 {
			t.Fatalf("sink %v has non-positive insertion %v", pin, a.T)
		}
	}
}

// arrivalOf returns the insertion delay at pin from res.ArrivalList.
func arrivalOf(res *Result, pin netlist.PinRef) float64 {
	for _, a := range res.ArrivalList {
		if a.Pin == pin {
			return a.T
		}
	}
	return 0
}

func TestTreeStructure(t *testing.T) {
	d, clk, opt := placedBench(t, 42)
	res := Synthesize(d, clk, opt)
	if res.Buffers == 0 || res.Levels < 2 {
		t.Fatalf("buffers=%d levels=%d", res.Buffers, res.Levels)
	}
	if res.WirelengthUM <= 0 {
		t.Fatal("no clock wirelength")
	}
	if res.Skew() < 0 {
		t.Fatal("negative skew")
	}
	// Balanced bisection should keep skew well under the max insertion.
	if res.Skew() > 0.8*res.MaxInsertion {
		t.Fatalf("skew %v vs insertion %v: tree too unbalanced", res.Skew(), res.MaxInsertion)
	}
}

// TestMaxFanoutControlsBuffers pins the tree maxFanout gives on a placed
// design: every leaf drives at most maxFanout sinks, so a binary tree over n
// sinks has at least 2*ceil(n/maxFanout)-1 buffers. The counts were recorded
// on commit fde76ed, whose default leaf fanout was the same 16.
func TestMaxFanoutControlsBuffers(t *testing.T) {
	d, clk, opt := placedBench(t, 43)
	res := Synthesize(d, clk, opt)
	n := len(res.ArrivalList)
	if minBuf := 2*((n+maxFanout-1)/maxFanout) - 1; res.Buffers < minBuf {
		t.Fatalf("%d sinks in %d buffers, want at least %d", n, res.Buffers, minBuf)
	}
	if res.Buffers != 11 || res.Levels != 4 {
		t.Fatalf("buffers=%d levels=%d, want 11 and 4", res.Buffers, res.Levels)
	}
}

func TestArrivalsUsableBySTA(t *testing.T) {
	b := designs.Generate(designs.TinySpec(44))
	d := b.Design
	place.Global(d, place.Options{Seed: 44})
	a := sta.New(d, b.Cons)
	ideal := a.Timing()
	res := Synthesize(d, clockNet(d), Options{BufMaster: d.Lib.Master("CLKBUF_X2")})
	a.SetClockArrivalList(res.ArrivalList)
	prop := a.Timing()
	if prop.Endpoints != ideal.Endpoints {
		t.Fatal("endpoint count changed")
	}
	// Propagated clocks shift slacks but should not be absurd.
	if prop.WNS < ideal.WNS-res.MaxInsertion-1e-12 {
		t.Fatalf("WNS degraded beyond max insertion: %v vs %v", prop.WNS, ideal.WNS)
	}
}

func TestEmptyClockNet(t *testing.T) {
	lib := designs.Lib()
	b := netlist.NewBuilder("e", lib)
	d := b.Design
	n := b.AddNet("clk")
	build(t, b)
	res := Synthesize(d, n, Options{BufMaster: lib.Master("CLKBUF_X2")})
	if len(res.ArrivalList) != 0 || res.Buffers != 0 {
		t.Fatalf("empty net result %+v", res)
	}
}

func TestEstimatePower(t *testing.T) {
	d, clk, opt := placedBench(t, 45)
	res := Synthesize(d, clk, opt)
	res.EstimatePower(opt, 1e-9, 1.1)
	if res.Power <= 0 {
		t.Fatal("clock power should be positive")
	}
	p1 := res.Power
	res.EstimatePower(opt, 0.5e-9, 1.1)
	if res.Power <= p1 {
		t.Fatal("faster clock should burn more power")
	}
	res.EstimatePower(opt, 0, 1.1)
}

func TestDeterministic(t *testing.T) {
	d1, clk1, opt := placedBench(t, 46)
	d2, clk2, _ := placedBench(t, 46)
	r1 := Synthesize(d1, clk1, opt)
	r2 := Synthesize(d2, clk2, Options{BufMaster: d2.Lib.Master("CLKBUF_X2")})
	if r1.Buffers != r2.Buffers || r1.WirelengthUM != r2.WirelengthUM {
		t.Fatal("CTS not deterministic")
	}
}

func TestInsertionGrowsWithDistance(t *testing.T) {
	// Sinks progressively farther from the clock root should see larger
	// insertion delay once they land in different subtrees.
	lib := designs.Lib()
	b := netlist.NewBuilder("spread", lib)
	d := b.Design
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 400, Y1: 400}
	clkPort := b.AddPort("clk", netlist.DirInput)
	clkPort.X, clkPort.Y, clkPort.Placed = 0, 0, true
	cn := b.AddNet("clk")
	cn.Clock = true
	b.Connect(cn, pinRef(d, -1, "clk"))
	dff := lib.Master("DFF_X1")
	var ids []int
	for i := 0; i < 32; i++ {
		ff := b.AddInstance("ff"+itoaCTS(i), dff)
		ff.X = float64(i * 12)
		ff.Y = float64(i * 12)
		ff.Placed = true
		b.Connect(cn, pinRef(d, ff.ID, "CK"))
		ids = append(ids, ff.ID)
	}
	build(t, b)
	res := Synthesize(d, cn, Options{BufMaster: lib.Master("CLKBUF_X2")})
	near := arrivalOf(res, pinRef(d, ids[0], "CK"))
	far := arrivalOf(res, pinRef(d, ids[31], "CK"))
	if near <= 0 || far <= 0 {
		t.Fatalf("arrivals: near=%v far=%v", near, far)
	}
	// The tree is balanced in levels, so skew is bounded, but wire from the
	// root at (0,0) makes the far corner at least as late as the near one.
	if far < near {
		t.Fatalf("far sink earlier than near sink: %v < %v", far, near)
	}
}

func itoaCTS(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}

// TestAnnotateHotLoopAllocFree gates the annotation walk: once the result
// has warmed arrival capacity, re-annotating must not allocate (the walk is
// the CTS O(sinks) hot path).
func TestAnnotateHotLoopAllocFree(t *testing.T) {
	d, clk, opt := placedBench(t, 48)
	res := Synthesize(d, clk, opt)
	if res.Buffers == 0 {
		t.Fatal("no tree")
	}

	// Rebuild the sink arrays and tree directly to get a subtree handle.
	var b builder
	b.gatherSinks(d, clk.ID)
	n := len(b.x)
	if n == 0 {
		t.Fatal("no sinks")
	}
	byX := make([]int32, n)
	byY := make([]int32, n)
	for i := range byX {
		byX[i] = int32(i)
		byY[i] = int32(i)
	}
	b.sideLo = make([]bool, n)
	tree := b.build(byX, byY, make([]int32, n))

	walk := &Result{ArrivalList: make([]sta.ClockArrival, 0, n)}
	var wl float64
	avg := testing.AllocsPerRun(20, func() {
		walk.ArrivalList = walk.ArrivalList[:0]
		b.annotateSub(tree, opt, walk, &wl, 1e-12)
	})
	if len(walk.ArrivalList) != n {
		t.Fatalf("walk reached %d of %d sinks", len(walk.ArrivalList), n)
	}
	if avg != 0 {
		t.Fatalf("annotate allocates %.1f times per walk, want 0", avg)
	}
}

// pinRef resolves a fixture pin by name, a port when inst < 0; fixtures
// name only declared pins.
func pinRef(d *netlist.Design, inst int, name string) netlist.PinRef {
	if inst < 0 {
		for i, p := range d.Ports {
			if p.Name == name {
				return netlist.PinRef{Inst: -1, Pin: i}
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

// build builds b's design, failing the test on an error.
func build(t testing.TB, b *netlist.Builder) *netlist.Design {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
