// The two graph shapes that used to drop to another engine: a clock behind a
// buffer (a launch arc whose clock pin an order without launch arcs writes
// after its Q) and a combinational loop.
package sta_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// wire connects the pins to a new net, driver first.
func wire(d *netlist.Design, name string, pins ...netlist.PinRef) *netlist.Net {
	n := d.AddNet(name)
	for _, p := range pins {
		d.Connect(n, p)
	}
	return n
}

// pin resolves pin name of inst, or the port called name when inst is nil.
func pin(d *netlist.Design, inst *netlist.Instance, name string) netlist.PinRef {
	if inst == nil {
		i := slices.IndexFunc(d.Ports, func(p *netlist.Port) bool { return p.Name == name })
		return netlist.PinRef{Inst: -1, Pin: i}
	}
	ref, err := d.PinRefOf(inst.ID, name)
	if err != nil {
		panic(err)
	}
	return ref
}

// instNamed and netNamed find a fixture instance or net by name.
func instNamed(d *netlist.Design, name string) *netlist.Instance {
	return d.Insts[slices.IndexFunc(d.Insts, func(inst *netlist.Instance) bool { return inst.Name == name })]
}

func netNamed(d *netlist.Design, name string) *netlist.Net {
	return d.Nets[slices.IndexFunc(d.Nets, func(n *netlist.Net) bool { return n.Name == name })]
}

func shapeDesign(name string) (*netlist.Design, *netlist.Library) {
	lib := designs.Lib()
	d := netlist.NewDesign(name, lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}
	d.Die = d.Core
	return d, lib
}

// bufferedClock: clk -> CLKBUF_X2 -> 24 x DFF_X1/CK, din -> every D, ff0/Q ->
// out. The clk->Q delay table depends on the slew at CK, and 24 clock pins
// load the buffer enough that it delivers a slower edge than InputSlew.
func bufferedClock() (*netlist.Design, sta.Constraints) {
	d, lib := shapeDesign("bufclk")
	d.AddPort("clk", netlist.DirInput)
	d.AddPort("din", netlist.DirInput)
	d.AddPort("out", netlist.DirOutput)
	buf := d.AddInstance("cbuf", lib.Master("CLKBUF_X2"))
	wire(d, "clk", pin(d, nil, "clk"), pin(d, buf, "A")).Clock = true
	ctree := wire(d, "ctree", pin(d, buf, "Z"))
	ctree.Clock = true
	din := wire(d, "d", pin(d, nil, "din"))
	for i := 0; i < 24; i++ {
		ff := d.AddInstance(fmt.Sprintf("ff%d", i), lib.Master("DFF_X1"))
		d.Connect(ctree, pin(d, ff, "CK"))
		d.Connect(din, pin(d, ff, "D"))
	}
	wire(d, "q", pin(d, instNamed(d, "ff0"), "Q"), pin(d, nil, "out"))
	cons := sta.DefaultConstraints(1e-9)
	return d, cons
}

// ring: three inverting stages in a loop (NAND2 -> INV -> INV -> NAND2/A2)
// with a side input on NAND2/A1 and the loop tapped to an output port.
func ring() (*netlist.Design, sta.Constraints) {
	d, lib := shapeDesign("ring")
	d.AddPort("en", netlist.DirInput)
	d.AddPort("out", netlist.DirOutput)
	g0 := d.AddInstance("g0", lib.Master("NAND2_X1"))
	g1 := d.AddInstance("g1", lib.Master("INV_X1"))
	g2 := d.AddInstance("g2", lib.Master("INV_X1"))
	wire(d, "en", pin(d, nil, "en"), pin(d, g0, "A1"))
	wire(d, "n0", pin(d, g0, "ZN"), pin(d, g1, "A"))
	wire(d, "n1", pin(d, g1, "ZN"), pin(d, g2, "A"))
	wire(d, "n2", pin(d, g2, "ZN"), pin(d, g0, "A2"), pin(d, nil, "out"))
	return d, sta.DefaultConstraints(1e-9)
}

// TestLaunchReadsFinalClockSlew: the launch arc must sample the slew the
// clock buffer actually delivers at CK. (A push along an order without
// launch arcs visits Q, a source there, before CK is written and so launches
// with Constraints.InputSlew: 82.60 ps here instead of 83.39 ps, optimistic.)
func TestLaunchReadsFinalClockSlew(t *testing.T) {
	d, cons := bufferedClock()
	cons.ZeroWire = true // no wire delay: slew(CK) is the buffer's output slew
	lib := d.Lib
	cb := lib.Master("CLKBUF_X2")
	bufArc := &cb.Pins[cb.PinIndex("Z")].Arcs[0]
	q := pin(d, instNamed(d, "ff0"), "Q")
	launch := &d.Insts[q.Inst].Master.Pins[q.Pin].Arcs[0]
	a := sta.New(d, cons)
	slewCK := bufArc.Slew.Lookup(cons.InputSlew, a.NetLoad(netNamed(d, "ctree").ID))
	want := launch.Delay.Lookup(slewCK, a.NetLoad(netNamed(d, "q").ID)) // ideal clock: arrival 0
	got, ok := a.ArrivalAt(q)
	if !ok || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("arrival(Q) = %.2f ps, want %.2f ps (clk->Q at the buffered slew %.2f ps)",
			got*1e12, want*1e12, slewCK*1e12)
	}
}

// TestCombinationalLoopDoesNotHang: a loop is opened by removing one edge,
// the same one on every build, and what is left is timed like any design.
func TestCombinationalLoopDoesNotHang(t *testing.T) {
	d, cons := ring()
	scatter(d, 5)
	var first string
	for build := 0; build < 2; build++ {
		a := sta.New(d, cons)
		if a.LoopEdges() != 1 {
			t.Fatalf("LoopEdges() = %d, want 1", a.LoopEdges())
		}
		sum := a.Timing() // must terminate
		if sum.Endpoints != 1 || math.IsInf(sum.WNS, 0) || math.IsNaN(sum.WNS) {
			t.Fatalf("build %d: summary %+v, want one endpoint with a finite WNS", build, sum)
		}
		if at, ok := a.ArrivalAt(pin(d, nil, "out")); !ok || at <= cons.InputDelay {
			t.Fatalf("build %d: out arrival %v (reached %v), want beyond the input delay", build, at, ok)
		}
		dg := engineDigest(a)
		if first == "" {
			first = dg
		} else if dg != first {
			t.Fatalf("build %d: digest %s differs from the first build's %s", build, dg, first)
		}
	}
}
