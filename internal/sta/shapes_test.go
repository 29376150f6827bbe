// The two graph shapes that used to drop to another engine: a clock behind a
// buffer (a launch arc whose clock pin is written after its Q in topo) and a
// combinational loop.
package sta_test

import (
	"fmt"
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// wire connects the pins to a new net, driver first.
func wire(d *netlist.Design, name string, pins ...netlist.PinRef) *netlist.Net {
	n, _ := d.AddNet(name)
	for _, p := range pins {
		d.Connect(n, p)
	}
	return n
}

func port(name string) netlist.PinRef { return netlist.PinRef{Inst: -1, Pin: name} }

func pin(inst *netlist.Instance, name string) netlist.PinRef {
	return netlist.PinRef{Inst: inst.ID, Pin: name}
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
	buf, _ := d.AddInstance("cbuf", lib.Master("CLKBUF_X2"))
	wire(d, "clk", port("clk"), pin(buf, "A")).Clock = true
	ctree := wire(d, "ctree", pin(buf, "Z"))
	ctree.Clock = true
	din := wire(d, "d", port("din"))
	for i := 0; i < 24; i++ {
		ff, _ := d.AddInstance(fmt.Sprintf("ff%d", i), lib.Master("DFF_X1"))
		d.Connect(ctree, pin(ff, "CK"))
		d.Connect(din, pin(ff, "D"))
	}
	wire(d, "q", pin(d.Instance("ff0"), "Q"), port("out"))
	cons := sta.DefaultConstraints(1e-9)
	cons.ClockPorts = []string{"clk"}
	return d, cons
}

// ring: three inverting stages in a loop (NAND2 -> INV -> INV -> NAND2/A2)
// with a side input on NAND2/A1 and the loop tapped to an output port.
func ring() (*netlist.Design, sta.Constraints) {
	d, lib := shapeDesign("ring")
	d.AddPort("en", netlist.DirInput)
	d.AddPort("out", netlist.DirOutput)
	g0, _ := d.AddInstance("g0", lib.Master("NAND2_X1"))
	g1, _ := d.AddInstance("g1", lib.Master("INV_X1"))
	g2, _ := d.AddInstance("g2", lib.Master("INV_X1"))
	wire(d, "en", port("en"), pin(g0, "A1"))
	wire(d, "n0", pin(g0, "ZN"), pin(g1, "A"))
	wire(d, "n1", pin(g1, "ZN"), pin(g2, "A"))
	wire(d, "n2", pin(g2, "ZN"), pin(g0, "A2"), port("out"))
	return d, sta.DefaultConstraints(1e-9)
}

// TestLaunchReadsFinalClockSlew: the launch arc must sample the slew the
// clock buffer actually delivers at CK. (A push along
// topo visits Q, a source there, before CK is written and so launches with
// Constraints.InputSlew: 82.60 ps here instead of 83.39 ps, optimistic.)
func TestLaunchReadsFinalClockSlew(t *testing.T) {
	d, cons := bufferedClock()
	cons.ZeroWire = true // no wire delay: slew(CK) is the buffer's output slew
	lib := d.Lib
	bufArc := &lib.Master("CLKBUF_X2").Pin("Z").Arcs[0]
	launch := &lib.Master("DFF_X1").Pin("Q").Arcs[0]
	q := sta.PinID{Inst: d.Instance("ff0").ID, Pin: "Q"}
	a := sta.New(d, cons)
	slewCK := bufArc.Slew.Lookup(cons.InputSlew, a.NetLoad(d.Net("ctree").ID))
	want := launch.Delay.Lookup(slewCK, a.NetLoad(d.Net("q").ID)) // ideal clock: arrival 0
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
		if at, ok := a.ArrivalAt(sta.PinID{Inst: -1, Pin: "out"}); !ok || at <= cons.InputDelay {
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
