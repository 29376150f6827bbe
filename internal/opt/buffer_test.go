package opt

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// longNetDesign builds a driver with sinks spread across a large core so
// at least one span exceeds any reasonable wire threshold.
func longNetDesign(t *testing.T) (*netlist.Design, sta.Constraints) {
	t.Helper()
	lib := designs.Lib()
	d := netlist.NewDesign("long", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 400, Y1: 400}
	d.Die = d.Core
	d.RowHeight, d.SiteWidth = 1.4, 0.19
	inv := lib.Master("INV_X1")
	drv, _ := d.AddInstance("drv", inv)
	drv.X, drv.Y, drv.Placed = 0, 0, true
	n, _ := d.AddNet("bignet")
	d.Connect(n, netlist.PinRef{Inst: drv.ID, Pin: "ZN"})
	for i := 0; i < 4; i++ {
		s, _ := d.AddInstance("s"+string(rune('0'+i)), inv)
		s.X, s.Y, s.Placed = 380, float64(i*90), true
		d.Connect(n, netlist.PinRef{Inst: s.ID, Pin: "A"})
	}
	// Drive the driver from a port so timing is constrained.
	in, _ := d.AddPort("in", netlist.DirInput)
	in.X, in.Y, in.Placed = 0, 0, true
	nd, _ := d.AddNet("nin")
	d.Connect(nd, netlist.PinRef{Inst: -1, Pin: "in"})
	d.Connect(nd, netlist.PinRef{Inst: drv.ID, Pin: "A"})
	out, _ := d.AddPort("out", netlist.DirOutput)
	out.X, out.Y, out.Placed = 400, 400, true
	// One sink also drives the output port for a constrained endpoint.
	s0 := d.Instance("s0")
	no, _ := d.AddNet("nout")
	d.Connect(no, netlist.PinRef{Inst: s0.ID, Pin: "ZN"})
	d.Connect(no, netlist.PinRef{Inst: -1, Pin: "out"})
	cons := sta.DefaultConstraints(2e-9)
	return d, cons
}

func TestInsertBuffersSplitsLongNet(t *testing.T) {
	d, cons := longNetDesign(t)
	nets := len(d.Nets)
	insts := len(d.Insts)
	before := sta.New(d, cons).Timing().WNS
	rep, err := InsertBuffers(d, d.Lib.Master("BUF_X4"))
	if err != nil {
		t.Fatal(err)
	}
	// The 400 um core puts the span threshold at 800/6 um; every sink is
	// farther, so the one net gets one buffer.
	if rep.Inserted != 1 {
		t.Fatalf("inserted=%d want 1", rep.Inserted)
	}
	if len(d.Nets) <= nets || len(d.Insts) <= insts {
		t.Fatal("netlist not modified")
	}
	if _, err := d.CompactChecked(); err != nil {
		t.Fatal(err)
	}
	// Buffering a hugely overloaded wire should improve (or not hurt) WNS.
	after := sta.New(d, cons).Timing().WNS
	if after < before-1e-12 {
		t.Fatalf("WNS got worse: %v -> %v", before, after)
	}
}

// TestInsertBuffersRespectsClockAndLimit scatters a design's cells over a
// core ten times its size, so that more nets span the length threshold than
// the 5%-of-instances limit allows; the count was recorded on commit
// fde76ed, whose defaults were the thresholds now fixed.
func TestInsertBuffersRespectsClockAndLimit(t *testing.T) {
	b := designs.Generate(designs.TinySpec(701))
	d := b.Design
	d.Core.X1 = d.Core.X0 + 10*d.Core.W()
	d.Core.Y1 = d.Core.Y0 + 10*d.Core.H()
	for i, inst := range d.Insts {
		// A deterministic low-discrepancy scatter over the core.
		_, fx := math.Modf(float64(i) * 0.6180339887)
		_, fy := math.Modf(float64(i) * 0.4142135623)
		inst.X, inst.Y, inst.Placed = d.Core.X0+fx*d.Core.W(), d.Core.Y0+fy*d.Core.H(), true
	}
	clockPins := len(d.Net("clk").Pins)
	limit := len(d.Insts)/20 + 1
	rep, err := InsertBuffers(d, d.Lib.Master("BUF_X4"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted != limit || limit != 16 {
		t.Fatalf("inserted %d, want the limit %d (16)", rep.Inserted, limit)
	}
	if len(d.Net("clk").Pins) != clockPins {
		t.Fatal("clock net was modified")
	}
	if _, err := d.CompactChecked(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBuffersFanoutSplit(t *testing.T) {
	lib := designs.Lib()
	d := netlist.NewDesign("fan", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	inv := lib.Master("INV_X1")
	drv, _ := d.AddInstance("drv", inv)
	drv.X, drv.Y, drv.Placed = 50, 50, true
	n, _ := d.AddNet("fanout")
	d.Connect(n, netlist.PinRef{Inst: drv.ID, Pin: "ZN"})
	// 30 sinks on a 6x5 grid within 30 um of the driver: over maxFanout, and
	// none beyond the 60 um span floor, so only the fanout trigger fires.
	for i := 0; i < 30; i++ {
		s, _ := d.AddInstance("s"+itoa(i), inv)
		s.X, s.Y, s.Placed = float64(35+i%6*5), float64(35+i/6*5), true
		d.Connect(n, netlist.PinRef{Inst: s.ID, Pin: "A"})
	}
	rep, err := InsertBuffers(d, lib.Master("BUF_X4"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted != 1 {
		t.Fatalf("inserted=%d want 1", rep.Inserted)
	}
	// The farthest 15 sinks move to the buffer's net: the original keeps the
	// driver, 15 sinks and the buffer input.
	if got, moved := len(d.Net("fanout").Pins), len(d.Nets[len(d.Nets)-1].Pins); got != 17 || moved != 16 {
		t.Fatalf("fanout split into %d and %d pins, want 17 and 16", got, moved)
	}
	if _, err := d.CompactChecked(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBuffersBadMaster(t *testing.T) {
	b := designs.Generate(designs.TinySpec(702))
	if _, err := InsertBuffers(b.Design, nil); err == nil {
		t.Fatal("expected error without a buffer master")
	}
	if _, err := InsertBuffers(b.Design, b.Design.Lib.Master("NAND2_X1")); err == nil {
		t.Fatal("expected error for non-buffer master")
	}
}

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}
