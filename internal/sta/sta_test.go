package sta

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ppaclust/internal/netlist"
)

const (
	invDelay  = 10e-12
	clk2q     = 40e-12
	setupTime = 20e-12
	holdTime  = 5e-12
)

func lib() *netlist.Library {
	l := netlist.NewLibrary("t")
	inv := &netlist.Master{Name: "INV", Width: 1, Height: 2, Leakage: 1e-9}
	inv.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 1e-15})
	y := inv.AddPin(netlist.MasterPin{Name: "Y", Dir: netlist.DirOutput, MaxCap: 50e-15})
	y.Arcs = []netlist.TimingArc{{From: "A", Kind: netlist.ArcComb,
		Delay: netlist.Const(invDelay), Slew: netlist.Const(5e-12), Energy: 1e-15}}
	nand := &netlist.Master{Name: "NAND2", Width: 1.5, Height: 2, Leakage: 2e-9}
	nand.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 1e-15})
	nand.AddPin(netlist.MasterPin{Name: "B", Dir: netlist.DirInput, Cap: 1e-15})
	ny := nand.AddPin(netlist.MasterPin{Name: "Y", Dir: netlist.DirOutput, MaxCap: 50e-15})
	ny.Arcs = []netlist.TimingArc{
		{From: "A", Kind: netlist.ArcComb, Delay: netlist.Const(15e-12), Slew: netlist.Const(6e-12), Energy: 1.2e-15},
		{From: "B", Kind: netlist.ArcComb, Delay: netlist.Const(15e-12), Slew: netlist.Const(6e-12), Energy: 1.2e-15},
	}
	dff := &netlist.Master{Name: "DFF", Width: 3, Height: 2, Leakage: 3e-9}
	dff.AddPin(netlist.MasterPin{Name: "D", Dir: netlist.DirInput, Cap: 1.2e-15,
		Arcs: []netlist.TimingArc{
			{From: "CK", Kind: netlist.ArcSetup, Delay: netlist.Const(setupTime)},
			{From: "CK", Kind: netlist.ArcHold, Delay: netlist.Const(holdTime)},
		}})
	dff.AddPin(netlist.MasterPin{Name: "CK", Dir: netlist.DirInput, Cap: 0.8e-15, Clock: true})
	q := dff.AddPin(netlist.MasterPin{Name: "Q", Dir: netlist.DirOutput, MaxCap: 60e-15})
	q.Arcs = []netlist.TimingArc{{From: "CK", Kind: netlist.ArcClkToQ,
		Delay: netlist.Const(clk2q), Slew: netlist.Const(8e-12), Energy: 2e-15}}
	for _, m := range []*netlist.Master{inv, nand, dff} {
		if err := l.AddMaster(m); err != nil {
			panic(err)
		}
	}
	return l
}

// combChain: in -> INV*n -> out, all cells coincident so wire delay is zero.
func combChain(t *testing.T, n int) *netlist.Design {
	t.Helper()
	l := lib()
	d := netlist.NewDesign("chain", l)
	in, _ := d.AddPort("in", netlist.DirInput)
	in.X, in.Y = 0, 0
	out, _ := d.AddPort("out", netlist.DirOutput)
	out.X, out.Y = 0, 0
	prev := netlist.PinRef{Inst: -1, Pin: "in"}
	for i := 0; i < n; i++ {
		inst, err := d.AddInstance(fmt.Sprintf("i%d", i), l.Master("INV"))
		if err != nil {
			t.Fatal(err)
		}
		inst.X, inst.Y = -0.5, -1 // center at origin
		net, _ := d.AddNet(fmt.Sprintf("n%d", i))
		d.Connect(net, prev)
		d.Connect(net, netlist.PinRef{Inst: inst.ID, Pin: "A"})
		prev = netlist.PinRef{Inst: inst.ID, Pin: "Y"}
	}
	last, _ := d.AddNet("nout")
	d.Connect(last, prev)
	d.Connect(last, netlist.PinRef{Inst: -1, Pin: "out"})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// regPair: clk port -> two DFFs; ff0.Q -> INV -> ff1.D. Coincident placement.
func regPair(t *testing.T) *netlist.Design {
	t.Helper()
	l := lib()
	d := netlist.NewDesign("regpair", l)
	clk, _ := d.AddPort("clk", netlist.DirInput)
	clk.X, clk.Y = 0, 0
	ff0, _ := d.AddInstance("ff0", l.Master("DFF"))
	ff1, _ := d.AddInstance("ff1", l.Master("DFF"))
	inv, _ := d.AddInstance("mid", l.Master("INV"))
	for _, inst := range d.Insts {
		inst.X, inst.Y = -inst.Master.Width/2, -1
	}
	cn, _ := d.AddNet("clknet")
	cn.Clock = true
	d.Connect(cn, netlist.PinRef{Inst: -1, Pin: "clk"})
	d.Connect(cn, netlist.PinRef{Inst: ff0.ID, Pin: "CK"})
	d.Connect(cn, netlist.PinRef{Inst: ff1.ID, Pin: "CK"})
	n0, _ := d.AddNet("q0")
	d.Connect(n0, netlist.PinRef{Inst: ff0.ID, Pin: "Q"})
	d.Connect(n0, netlist.PinRef{Inst: inv.ID, Pin: "A"})
	n1, _ := d.AddNet("d1")
	d.Connect(n1, netlist.PinRef{Inst: inv.ID, Pin: "Y"})
	d.Connect(n1, netlist.PinRef{Inst: ff1.ID, Pin: "D"})
	// ff0.D floats; drive it from a data port to make it reachable.
	din, _ := d.AddPort("din", netlist.DirInput)
	din.X, din.Y = 0, 0
	nd, _ := d.AddNet("d0")
	d.Connect(nd, netlist.PinRef{Inst: -1, Pin: "din"})
	d.Connect(nd, netlist.PinRef{Inst: ff0.ID, Pin: "D"})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func consFor(period float64, clocks ...string) Constraints {
	c := DefaultConstraints(period)
	c.ClockPorts = clocks
	return c
}

// endpointSlack returns the slack of the worst path ending at the pin.
func endpointSlack(t *testing.T, a *Analyzer, id PinID) float64 {
	t.Helper()
	for _, p := range a.TopPaths(1 << 20) {
		if p.Endpoint == id {
			return p.Slack
		}
	}
	t.Fatalf("no path ends at %v", id)
	return 0
}

func TestCombChainArrival(t *testing.T) {
	d := combChain(t, 3)
	cons := consFor(1e-9)
	a := New(d, cons)
	at, ok := a.arrivalAt(PinID{Inst: -1, Pin: "out"})
	if !ok {
		t.Fatal("out not reached")
	}
	want := cons.InputDelay + 3*invDelay
	if math.Abs(at-want) > 1e-15 {
		t.Fatalf("AT(out)=%v want %v", at, want)
	}
	slack := endpointSlack(t, a, PinID{Inst: -1, Pin: "out"})
	wantSlack := (1e-9 - cons.OutputDelay) - want
	if math.Abs(slack-wantSlack) > 1e-15 {
		t.Fatalf("slack=%v want %v", slack, wantSlack)
	}
	sum := a.Timing()
	if sum.Endpoints != 1 || sum.Failing != 0 || sum.WNS != 0 || sum.TNS != 0 {
		t.Fatalf("summary=%+v", sum)
	}
}

func TestCombChainViolation(t *testing.T) {
	d := combChain(t, 5)
	// Make the clock absurdly tight so the path fails.
	cons := consFor(40e-12)
	a := New(d, cons)
	sum := a.Timing()
	if sum.Failing != 1 || sum.WNS >= 0 || math.Abs(sum.TNS-sum.WNS) > 1e-18 {
		t.Fatalf("summary=%+v", sum)
	}
}

func TestRegToRegSlack(t *testing.T) {
	d := regPair(t)
	period := 100e-12
	a := New(d, consFor(period, "clk"))
	slack := endpointSlack(t, a, PinID{Inst: d.Instance("ff1").ID, Pin: "D"})
	want := period - setupTime - (clk2q + invDelay)
	if math.Abs(slack-want) > 1e-15 {
		t.Fatalf("slack=%v want %v", slack, want)
	}
}

func TestClockArrivalsShiftSlack(t *testing.T) {
	d := regPair(t)
	period := 100e-12
	a := New(d, consFor(period, "clk"))
	base := endpointSlack(t, a, PinID{Inst: d.Instance("ff1").ID, Pin: "D"})
	// Useful skew: delay capture clock by 10ps -> slack improves by 10ps.
	skew := 10e-12
	a.SetClockArrivalList([]ClockArrival{
		{Inst: d.Instance("ff0").ID, Pin: "CK", T: 0},
		{Inst: d.Instance("ff1").ID, Pin: "CK", T: skew},
	})
	got := endpointSlack(t, a, PinID{Inst: d.Instance("ff1").ID, Pin: "D"})
	if math.Abs(got-(base+skew)) > 1e-15 {
		t.Fatalf("slack with skew=%v want %v", got, base+skew)
	}
	// Restore ideal clock.
	a.SetClockArrivalList(nil)
	if math.Abs(endpointSlack(t, a, PinID{Inst: d.Instance("ff1").ID, Pin: "D"})-base) > 1e-15 {
		t.Fatal("resetting clock arrivals should restore base slack")
	}
}

func TestWireDelayMatters(t *testing.T) {
	d := combChain(t, 2)
	cons := consFor(1e-9)
	a := New(d, cons)
	at0, _ := a.arrivalAt(PinID{Inst: -1, Pin: "out"})
	// Spread the cells far apart and update.
	d.Insts[0].X, d.Insts[0].Y = 0, 0
	d.Insts[1].X, d.Insts[1].Y = 500, 500
	a.Update()
	at1, _ := a.arrivalAt(PinID{Inst: -1, Pin: "out"})
	if at1 <= at0 {
		t.Fatalf("wire delay did not increase arrival: %v <= %v", at1, at0)
	}
}

func TestTopPathsOrderAndContent(t *testing.T) {
	d := regPair(t)
	a := New(d, consFor(50e-12, "clk"))
	paths := a.TopPaths(10)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Slack < paths[i-1].Slack {
			t.Fatal("paths not sorted by ascending slack")
		}
	}
	// The worst path should end at ff1/D and start at ff0 (launch).
	p := paths[0]
	ff1 := d.Instance("ff1").ID
	if p.Endpoint != (PinID{Inst: ff1, Pin: "D"}) {
		t.Fatalf("worst endpoint=%v", p.Endpoint)
	}
	first := p.Pins[0]
	if first.Inst != d.Instance("ff0").ID {
		t.Fatalf("path should start at ff0 launch, got %v", first)
	}
	if len(p.Nets) == 0 {
		t.Fatal("path should traverse nets")
	}
}

func TestTopPathsLimit(t *testing.T) {
	d := regPair(t)
	a := New(d, consFor(50e-12, "clk"))
	if got := len(a.TopPaths(1)); got != 1 {
		t.Fatalf("len=%d want 1", got)
	}
}

func TestNetSlack(t *testing.T) {
	d := regPair(t)
	a := New(d, consFor(50e-12, "clk"))
	ns := a.NetSlackInto(nil)
	q0 := d.Net("q0").ID
	d1 := d.Net("d1").ID
	if math.IsInf(ns[q0], 1) || math.IsInf(ns[d1], 1) {
		t.Fatalf("critical nets should have finite slack: q0=%v d1=%v", ns[q0], ns[d1])
	}
	// Data path is failing at 50ps period (needs 70ps), so slacks negative.
	if ns[d1] >= 0 {
		t.Fatalf("d1 slack=%v want negative", ns[d1])
	}
}

func TestActivityPropagation(t *testing.T) {
	d := regPair(t)
	cons := consFor(1e-9, "clk")
	a := New(d, cons)
	act := a.NetActivity()
	if got := act[d.Net("clknet").ID]; got != 2.0 {
		t.Fatalf("clock activity=%v want 2", got)
	}
	// ff0 Q toggles at half its D activity.
	wantQ := 0.5 * cons.InputActivity
	if got := act[d.Net("q0").ID]; math.Abs(got-wantQ) > 1e-12 {
		t.Fatalf("q0 activity=%v want %v", got, wantQ)
	}
	// INV preserves activity.
	if got := act[d.Net("d1").ID]; math.Abs(got-wantQ) > 1e-12 {
		t.Fatalf("d1 activity=%v want %v", got, wantQ)
	}
}

func TestActivityGateAttenuation(t *testing.T) {
	l := lib()
	d := netlist.NewDesign("nand", l)
	a1, _ := d.AddPort("a", netlist.DirInput)
	a1.X, a1.Y = 0, 0
	b1, _ := d.AddPort("b", netlist.DirInput)
	b1.X, b1.Y = 0, 0
	out, _ := d.AddPort("y", netlist.DirOutput)
	out.X, out.Y = 0, 0
	g, _ := d.AddInstance("g", l.Master("NAND2"))
	na, _ := d.AddNet("na")
	d.Connect(na, netlist.PinRef{Inst: -1, Pin: "a"})
	d.Connect(na, netlist.PinRef{Inst: g.ID, Pin: "A"})
	nb, _ := d.AddNet("nb")
	d.Connect(nb, netlist.PinRef{Inst: -1, Pin: "b"})
	d.Connect(nb, netlist.PinRef{Inst: g.ID, Pin: "B"})
	ny, _ := d.AddNet("ny")
	d.Connect(ny, netlist.PinRef{Inst: g.ID, Pin: "Y"})
	d.Connect(ny, netlist.PinRef{Inst: -1, Pin: "y"})
	cons := consFor(1e-9)
	an := New(d, cons)
	act := an.NetActivity()
	want := 0.75 * cons.InputActivity
	if got := act[ny.ID]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("nand out activity=%v want %v", got, want)
	}
}

func TestActivityFactorFamilies(t *testing.T) {
	cases := map[string]float64{
		"XOR2_X1": 1.5, "NAND2_X2": 0.75, "NOR3_X1": 0.75, "AOI21_X1": 0.75,
		"MUX2_X1": 0.9, "INV_X4": 1.0, "BUF_X8": 1.0, "DFF_X1": 1.0,
	}
	for name, want := range cases {
		if got := activityFactor(name); got != want {
			t.Errorf("activityFactor(%s)=%v want %v", name, got, want)
		}
	}
}

func TestWriteReport(t *testing.T) {
	d := regPair(t)
	a := New(d, consFor(50e-12, "clk"))
	var sb strings.Builder
	if err := a.WriteReport(&sb, 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Path 1", "slack (VIOLATED)", "data required time", "wns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Empty design reports gracefully.
	lib2 := lib()
	empty := netlist.NewDesign("e", lib2)
	a2 := New(empty, consFor(1e-9))
	sb.Reset()
	if err := a2.WriteReport(&sb, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "No constrained paths") {
		t.Fatal("empty report wrong")
	}
}
