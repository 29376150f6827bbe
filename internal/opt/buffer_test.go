package opt

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
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
	rep, err := InsertBuffers(d, BufferOptions{
		BufMaster:     d.Lib.Master("BUF_X4"),
		MaxWireLength: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted == 0 {
		t.Fatal("expected at least one buffer")
	}
	if len(d.Nets) <= nets || len(d.Insts) <= insts {
		t.Fatal("netlist not modified")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Buffering a hugely overloaded wire should improve (or not hurt) WNS.
	after := sta.New(d, cons).Timing().WNS
	if after < before-1e-12 {
		t.Fatalf("WNS got worse: %v -> %v", before, after)
	}
}

func TestInsertBuffersRespectsClockAndLimit(t *testing.T) {
	b := designs.Generate(designs.TinySpec(701))
	d := b.Design
	place.Global(d, place.Options{Seed: 1})
	place.Legalize(d)
	clockPins := len(d.Net("clk").Pins)
	rep, err := InsertBuffers(d, BufferOptions{
		BufMaster:  d.Lib.Master("BUF_X4"),
		MaxBuffers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted > 3 {
		t.Fatalf("limit exceeded: %d", rep.Inserted)
	}
	if len(d.Net("clk").Pins) != clockPins {
		t.Fatal("clock net was modified")
	}
	if err := d.Validate(); err != nil {
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
	for i := 0; i < 30; i++ {
		s, _ := d.AddInstance("s"+itoa(i), inv)
		s.X, s.Y, s.Placed = float64(i*3), float64((i*7)%100), true
		d.Connect(n, netlist.PinRef{Inst: s.ID, Pin: "A"})
	}
	rep, err := InsertBuffers(d, BufferOptions{
		BufMaster:     lib.Master("BUF_X4"),
		MaxWireLength: 1e9, // disable length trigger; fanout only
		MaxFanout:     24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted != 1 {
		t.Fatalf("inserted=%d want 1", rep.Inserted)
	}
	// Original net fanout reduced.
	if got := len(d.Net("fanout").Pins); got >= 31 {
		t.Fatalf("fanout not reduced: %d pins", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBuffersBadMaster(t *testing.T) {
	b := designs.Generate(designs.TinySpec(702))
	if _, err := InsertBuffers(b.Design, BufferOptions{}); err == nil {
		t.Fatal("expected error without BufMaster")
	}
	if _, err := InsertBuffers(b.Design, BufferOptions{BufMaster: b.Design.Lib.Master("NAND2_X1")}); err == nil {
		t.Fatal("expected error for non-buffer master")
	}
}

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}
