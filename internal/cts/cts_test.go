package cts

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
	"ppaclust/internal/sta"
)

func placedBench(t *testing.T, seed int64) (*netlist.Design, *netlist.Net, Options) {
	t.Helper()
	b := designs.Generate(designs.TinySpec(seed))
	place.Global(b.Design, place.Options{Seed: seed})
	clk := b.Design.Net("clk")
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
	if len(res.Arrivals) != want {
		t.Fatalf("arrivals=%d want %d", len(res.Arrivals), want)
	}
	for pin, at := range res.Arrivals {
		if at <= 0 {
			t.Fatalf("sink %v has non-positive insertion %v", pin, at)
		}
	}
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

func TestMaxFanoutControlsBuffers(t *testing.T) {
	d, clk, opt := placedBench(t, 43)
	optSmall := opt
	optSmall.MaxFanout = 4
	many := Synthesize(d, clk, optSmall)
	optBig := opt
	optBig.MaxFanout = 64
	few := Synthesize(d, clk, optBig)
	if many.Buffers <= few.Buffers {
		t.Fatalf("fanout 4 gave %d buffers, fanout 64 gave %d", many.Buffers, few.Buffers)
	}
}

func TestArrivalsUsableBySTA(t *testing.T) {
	b := designs.Generate(designs.TinySpec(44))
	d := b.Design
	place.Global(d, place.Options{Seed: 44})
	a := sta.New(d, b.Cons)
	ideal := a.Timing()
	res := Synthesize(d, d.Net("clk"), Options{BufMaster: d.Lib.Master("CLKBUF_X2")})
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
	d := netlist.NewDesign("e", lib)
	n, _ := d.AddNet("clk")
	res := Synthesize(d, n, Options{BufMaster: lib.Master("CLKBUF_X2")})
	if len(res.Arrivals) != 0 || res.Buffers != 0 {
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
	d := netlist.NewDesign("spread", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 400, Y1: 400}
	clkPort, _ := d.AddPort("clk", netlist.DirInput)
	clkPort.X, clkPort.Y, clkPort.Placed = 0, 0, true
	cn, _ := d.AddNet("clk")
	cn.Clock = true
	d.Connect(cn, netlist.PinRef{Inst: -1, Pin: "clk"})
	dff := lib.Master("DFF_X1")
	var ids []int
	for i := 0; i < 32; i++ {
		ff, _ := d.AddInstance("ff"+itoaCTS(i), dff)
		ff.X = float64(i * 12)
		ff.Y = float64(i * 12)
		ff.Placed = true
		d.Connect(cn, netlist.PinRef{Inst: ff.ID, Pin: "CK"})
		ids = append(ids, ff.ID)
	}
	res := Synthesize(d, cn, Options{BufMaster: lib.Master("CLKBUF_X2"), MaxFanout: 4})
	near := res.Arrivals[sta.PinID{Inst: ids[0], Pin: "CK"}]
	far := res.Arrivals[sta.PinID{Inst: ids[31], Pin: "CK"}]
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
	opt = opt.withDefaults()
	var b builder
	c := d.Compact()
	ni := clk.ID
	for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
		id := c.PinInst[k]
		if id < 0 {
			continue
		}
		mpIdx := c.PinMP[k]
		if mpIdx < 0 {
			continue
		}
		mp := &d.Insts[id].Master.Pins[mpIdx]
		if mp.Dir != netlist.DirInput {
			continue
		}
		b.x = append(b.x, d.Insts[id].X+c.PinDX[k])
		b.y = append(b.y, d.Insts[id].Y+c.PinDY[k])
		b.cap = append(b.cap, mp.Cap)
		b.inst = append(b.inst, id)
		b.mp = append(b.mp, mpIdx)
	}
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
	tree := b.build(byX, byY, make([]int32, n), opt.MaxFanout)

	walk := &Result{ArrivalList: make([]sta.ClockArrival, 0, n)}
	var wl float64
	avg := testing.AllocsPerRun(20, func() {
		walk.ArrivalList = walk.ArrivalList[:0]
		b.annotateSub(d, tree, opt, walk, &wl, 1e-12)
	})
	if len(walk.ArrivalList) != n {
		t.Fatalf("walk reached %d of %d sinks", len(walk.ArrivalList), n)
	}
	if avg != 0 {
		t.Fatalf("annotate allocates %.1f times per walk, want 0", avg)
	}
}
