package sta

import (
	"fmt"
	"math"
	"slices"
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
	y.Arcs = []netlist.TimingArc{{From: 0, Kind: netlist.ArcComb,
		Delay: netlist.Const(invDelay), Slew: netlist.Const(5e-12), Energy: 1e-15}}
	nand := &netlist.Master{Name: "NAND2", Width: 1.5, Height: 2, Leakage: 2e-9}
	nand.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 1e-15})
	nand.AddPin(netlist.MasterPin{Name: "B", Dir: netlist.DirInput, Cap: 1e-15})
	ny := nand.AddPin(netlist.MasterPin{Name: "Y", Dir: netlist.DirOutput, MaxCap: 50e-15})
	ny.Arcs = []netlist.TimingArc{
		{From: 0, Kind: netlist.ArcComb, Delay: netlist.Const(15e-12), Slew: netlist.Const(6e-12), Energy: 1.2e-15},
		{From: 1, Kind: netlist.ArcComb, Delay: netlist.Const(15e-12), Slew: netlist.Const(6e-12), Energy: 1.2e-15},
	}
	dff := &netlist.Master{Name: "DFF", Width: 3, Height: 2, Leakage: 3e-9}
	dff.AddPin(netlist.MasterPin{Name: "D", Dir: netlist.DirInput, Cap: 1.2e-15,
		Arcs: []netlist.TimingArc{
			{From: 1, Kind: netlist.ArcSetup, Delay: netlist.Const(setupTime)},
			{From: 1, Kind: netlist.ArcHold, Delay: netlist.Const(holdTime)},
		}})
	dff.AddPin(netlist.MasterPin{Name: "CK", Dir: netlist.DirInput, Cap: 0.8e-15, Clock: true})
	q := dff.AddPin(netlist.MasterPin{Name: "Q", Dir: netlist.DirOutput, MaxCap: 60e-15})
	q.Arcs = []netlist.TimingArc{{From: 1, Kind: netlist.ArcClkToQ,
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
	b := netlist.NewBuilder("chain", l)
	d := b.Design
	in := b.AddPort("in", netlist.DirInput)
	in.X, in.Y = 0, 0
	out := b.AddPort("out", netlist.DirOutput)
	out.X, out.Y = 0, 0
	prev := pinRef(d, -1, "in")
	for i := 0; i < n; i++ {
		inst := b.AddInstance(fmt.Sprintf("i%d", i), l.Master("INV"))
		inst.X, inst.Y = -0.5, -1 // center at origin
		net := b.AddNet(fmt.Sprintf("n%d", i))
		b.Connect(net, prev)
		b.Connect(net, pinRef(d, inst.ID, "A"))
		prev = pinRef(d, inst.ID, "Y")
	}
	last := b.AddNet("nout")
	b.Connect(last, prev)
	b.Connect(last, pinRef(d, -1, "out"))
	return build(t, b)
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

// regPair: clk port -> two DFFs; ff0.Q -> INV -> ff1.D. Coincident placement.
func regPair(t *testing.T) *netlist.Design {
	t.Helper()
	l := lib()
	b := netlist.NewBuilder("regpair", l)
	d := b.Design
	clk := b.AddPort("clk", netlist.DirInput)
	clk.X, clk.Y = 0, 0
	ff0 := b.AddInstance("ff0", l.Master("DFF"))
	ff1 := b.AddInstance("ff1", l.Master("DFF"))
	inv := b.AddInstance("mid", l.Master("INV"))
	for _, inst := range d.Insts {
		inst.X, inst.Y = -inst.Master.Width/2, -1
	}
	cn := b.AddNet("clknet")
	cn.Clock = true
	b.Connect(cn, pinRef(d, -1, "clk"))
	b.Connect(cn, pinRef(d, ff0.ID, "CK"))
	b.Connect(cn, pinRef(d, ff1.ID, "CK"))
	n0 := b.AddNet("q0")
	b.Connect(n0, pinRef(d, ff0.ID, "Q"))
	b.Connect(n0, pinRef(d, inv.ID, "A"))
	n1 := b.AddNet("d1")
	b.Connect(n1, pinRef(d, inv.ID, "Y"))
	b.Connect(n1, pinRef(d, ff1.ID, "D"))
	// ff0.D floats; drive it from a data port to make it reachable.
	din := b.AddPort("din", netlist.DirInput)
	din.X, din.Y = 0, 0
	nd := b.AddNet("d0")
	b.Connect(nd, pinRef(d, -1, "din"))
	b.Connect(nd, pinRef(d, ff0.ID, "D"))
	return build(t, b)
}

// endpointSlack returns the slack of the worst path ending at the pin.
func endpointSlack(t *testing.T, a *Analyzer, id netlist.PinRef) float64 {
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
	cons := DefaultConstraints(1e-9)
	a := New(d, cons)
	at, ok := a.arrivalAt(pinRef(d, -1, "out"))
	if !ok {
		t.Fatal("out not reached")
	}
	want := cons.InputDelay + 3*invDelay
	if math.Abs(at-want) > 1e-15 {
		t.Fatalf("AT(out)=%v want %v", at, want)
	}
	slack := endpointSlack(t, a, pinRef(d, -1, "out"))
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
	cons := DefaultConstraints(40e-12)
	a := New(d, cons)
	sum := a.Timing()
	if sum.Failing != 1 || sum.WNS >= 0 || math.Abs(sum.TNS-sum.WNS) > 1e-18 {
		t.Fatalf("summary=%+v", sum)
	}
}

func TestRegToRegSlack(t *testing.T) {
	d := regPair(t)
	period := 100e-12
	a := New(d, DefaultConstraints(period))
	slack := endpointSlack(t, a, pinRef(d, instID(d, "ff1"), "D"))
	want := period - setupTime - (clk2q + invDelay)
	if math.Abs(slack-want) > 1e-15 {
		t.Fatalf("slack=%v want %v", slack, want)
	}
}

func TestClockArrivalsShiftSlack(t *testing.T) {
	d := regPair(t)
	period := 100e-12
	a := New(d, DefaultConstraints(period))
	base := endpointSlack(t, a, pinRef(d, instID(d, "ff1"), "D"))
	// Useful skew: delay capture clock by 10ps -> slack improves by 10ps.
	skew := 10e-12
	a.SetClockArrivalList([]ClockArrival{
		{Pin: pinRef(d, instID(d, "ff0"), "CK"), T: 0},
		{Pin: pinRef(d, instID(d, "ff1"), "CK"), T: skew},
	})
	got := endpointSlack(t, a, pinRef(d, instID(d, "ff1"), "D"))
	if math.Abs(got-(base+skew)) > 1e-15 {
		t.Fatalf("slack with skew=%v want %v", got, base+skew)
	}
	// Restore ideal clock.
	a.SetClockArrivalList(nil)
	if math.Abs(endpointSlack(t, a, pinRef(d, instID(d, "ff1"), "D"))-base) > 1e-15 {
		t.Fatal("resetting clock arrivals should restore base slack")
	}
}

func TestWireDelayMatters(t *testing.T) {
	d := combChain(t, 2)
	cons := DefaultConstraints(1e-9)
	a := New(d, cons)
	at0, _ := a.arrivalAt(pinRef(d, -1, "out"))
	// Spread the cells far apart and update.
	d.Insts[0].X, d.Insts[0].Y = 0, 0
	d.Insts[1].X, d.Insts[1].Y = 500, 500
	a.Update()
	at1, _ := a.arrivalAt(pinRef(d, -1, "out"))
	if at1 <= at0 {
		t.Fatalf("wire delay did not increase arrival: %v <= %v", at1, at0)
	}
}

func TestTopPathsOrderAndContent(t *testing.T) {
	d := regPair(t)
	a := New(d, DefaultConstraints(50e-12))
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
	ff1 := instID(d, "ff1")
	if p.Endpoint != pinRef(d, ff1, "D") {
		t.Fatalf("worst endpoint=%v", p.Endpoint)
	}
	first := p.Pins[0]
	if first.Inst != instID(d, "ff0") {
		t.Fatalf("path should start at ff0 launch, got %v", first)
	}
	if len(p.Nets) == 0 {
		t.Fatal("path should traverse nets")
	}
}

func TestTopPathsLimit(t *testing.T) {
	d := regPair(t)
	a := New(d, DefaultConstraints(50e-12))
	if got := len(a.TopPaths(1)); got != 1 {
		t.Fatalf("len=%d want 1", got)
	}
}

func TestNetSlack(t *testing.T) {
	d := regPair(t)
	a := New(d, DefaultConstraints(50e-12))
	ns := a.NetSlackInto(nil)
	q0 := netID(d, "q0")
	d1 := netID(d, "d1")
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
	cons := DefaultConstraints(1e-9)
	a := New(d, cons)
	act := a.NetActivity()
	if got := act[netID(d, "clknet")]; got != 2.0 {
		t.Fatalf("clock activity=%v want 2", got)
	}
	// ff0 Q toggles at half its D activity.
	wantQ := 0.5 * cons.InputActivity
	if got := act[netID(d, "q0")]; math.Abs(got-wantQ) > 1e-12 {
		t.Fatalf("q0 activity=%v want %v", got, wantQ)
	}
	// INV preserves activity.
	if got := act[netID(d, "d1")]; math.Abs(got-wantQ) > 1e-12 {
		t.Fatalf("d1 activity=%v want %v", got, wantQ)
	}
}

func TestActivityGateAttenuation(t *testing.T) {
	l := lib()
	bld := netlist.NewBuilder("nand", l)
	d := bld.Design
	a1 := bld.AddPort("a", netlist.DirInput)
	a1.X, a1.Y = 0, 0
	b1 := bld.AddPort("b", netlist.DirInput)
	b1.X, b1.Y = 0, 0
	out := bld.AddPort("y", netlist.DirOutput)
	out.X, out.Y = 0, 0
	g := bld.AddInstance("g", l.Master("NAND2"))
	na := bld.AddNet("na")
	bld.Connect(na, pinRef(d, -1, "a"))
	bld.Connect(na, pinRef(d, g.ID, "A"))
	nb := bld.AddNet("nb")
	bld.Connect(nb, pinRef(d, -1, "b"))
	bld.Connect(nb, pinRef(d, g.ID, "B"))
	ny := bld.AddNet("ny")
	bld.Connect(ny, pinRef(d, g.ID, "Y"))
	bld.Connect(ny, pinRef(d, -1, "y"))
	build(t, bld)
	cons := DefaultConstraints(1e-9)
	an := New(d, cons)
	act := an.NetActivity()
	want := 0.75 * cons.InputActivity
	if got := act[ny.ID]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("nand out activity=%v want %v", got, want)
	}
}

// TestClockRootFromNetFlag: a clock root is an input port on a net marked
// as a clock net; Constraints.ClockPorts names none here. regPair's clk port
// starts at time 0 with the clock's activity while its net is marked, and is
// a data input once the mark is cleared.
func TestClockRootFromNetFlag(t *testing.T) {
	d := regPair(t)
	cons := DefaultConstraints(1e-9)
	clk := pinRef(d, -1, "clk")
	for _, marked := range []bool{true, false} {
		d.Nets[netID(d, "clknet")].Clock = marked
		a := New(d, cons)
		wantAt, wantAct := cons.InputDelay, cons.InputActivity
		if marked {
			wantAt, wantAct = 0, clockActivity
		}
		if at, ok := a.arrivalAt(clk); !ok || at != wantAt {
			t.Errorf("marked=%v: clk arrival %v (reached %v), want %v", marked, at, ok, wantAt)
		}
		if act := a.PinActivity(clk); act != wantAct {
			t.Errorf("marked=%v: clk activity %v, want %v", marked, act, wantAct)
		}
	}
}

// TestActivityFactorFamilies pins the factor a master's name family gets
// when the master joins a library; the family match ignores case.
func TestActivityFactorFamilies(t *testing.T) {
	cases := map[string]float64{
		"XOR2_X1": 1.5, "NAND2_X2": 0.75, "NOR3_X1": 0.75, "AOI21_X1": 0.75,
		"MUX2_X1": 0.9, "INV_X4": 1.0, "BUF_X8": 1.0, "DFF_X1": 1.0,
		"xnor2_x1": 1.5, "oai22_x1": 0.75,
	}
	l := netlist.NewLibrary("families")
	for name, want := range cases {
		m := &netlist.Master{Name: name}
		if err := l.AddMaster(m); err != nil {
			t.Fatal(err)
		}
		if got := m.Func.ActivityFactor(); got != want {
			t.Errorf("activity factor of %s = %v, want %v", name, got, want)
		}
	}
}

func TestWriteReport(t *testing.T) {
	d := regPair(t)
	a := New(d, DefaultConstraints(50e-12))
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
	empty := build(t, netlist.NewBuilder("e", lib2))
	a2 := New(empty, DefaultConstraints(1e-9))
	sb.Reset()
	if err := a2.WriteReport(&sb, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "No constrained paths") {
		t.Fatal("empty report wrong")
	}
}

// instID and netID find a fixture instance or net by name.
func instID(d *netlist.Design, name string) int {
	return slices.IndexFunc(d.Insts, func(inst *netlist.Instance) bool { return inst.Name == name })
}

func netID(d *netlist.Design, name string) int {
	return slices.IndexFunc(d.Nets, func(n *netlist.Net) bool { return n.Name == name })
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
