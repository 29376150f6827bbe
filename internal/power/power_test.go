package power

import (
	"math"
	"testing"

	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// oneGate builds port->INV->port with all pins coincident (no wire cap).
func oneGate(t *testing.T) (*netlist.Design, sta.Constraints) {
	t.Helper()
	l := netlist.NewLibrary("t")
	inv := &netlist.Master{Name: "INV", Width: 1, Height: 2, Leakage: 5e-9}
	inv.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 2e-15})
	y := inv.AddPin(netlist.MasterPin{Name: "Y", Dir: netlist.DirOutput})
	y.Arcs = []netlist.TimingArc{{From: 0, Kind: netlist.ArcComb,
		Delay: netlist.Const(10e-12), Slew: netlist.Const(5e-12), Energy: 3e-15}}
	if err := l.AddMaster(inv); err != nil {
		t.Fatal(err)
	}
	b := netlist.NewBuilder("p", l)
	d := b.Design
	in := b.AddPort("in", netlist.DirInput)
	in.X, in.Y = 0, 0
	out := b.AddPort("out", netlist.DirOutput)
	out.X, out.Y = 0, 0
	g := b.AddInstance("g", inv)
	g.X, g.Y = -0.5, -1
	n0 := b.AddNet("n0")
	b.Connect(n0, pinRef(d, -1, "in"))
	b.Connect(n0, pinRef(d, g.ID, "A"))
	n1 := b.AddNet("n1")
	b.Connect(n1, pinRef(d, g.ID, "Y"))
	b.Connect(n1, pinRef(d, -1, "out"))
	cons := sta.DefaultConstraints(1e-9)
	return build(t, b), cons
}

func TestAnalyzeHandComputed(t *testing.T) {
	d, cons := oneGate(t)
	a := sta.New(d, cons)
	rep := Analyze(a, 1.0)
	freq := 1 / cons.ClockPeriod
	act := cons.InputActivity
	// n0 load = inv A cap; n1 load = port cap. Activity on both = input act.
	wantSw := 0.5*2e-15*act*freq + 0.5*cons.PortCap*act*freq
	if math.Abs(rep.Switching-wantSw)/wantSw > 1e-9 {
		t.Fatalf("switching=%v want %v", rep.Switching, wantSw)
	}
	wantInt := 3e-15 * act * freq
	if math.Abs(rep.Internal-wantInt)/wantInt > 1e-9 {
		t.Fatalf("internal=%v want %v", rep.Internal, wantInt)
	}
	if rep.Leakage != 5e-9 {
		t.Fatalf("leakage=%v", rep.Leakage)
	}
	if math.Abs(rep.Total()-(rep.Switching+rep.Internal+rep.Leakage)) > 1e-18 {
		t.Fatal("total mismatch")
	}
}

func TestPowerScalesWithVdd(t *testing.T) {
	d, cons := oneGate(t)
	a := sta.New(d, cons)
	p1 := Analyze(a, 1.0)
	p2 := Analyze(a, 2.0)
	if math.Abs(p2.Switching-4*p1.Switching)/p1.Switching > 1e-9 {
		t.Fatalf("switching should scale with Vdd^2: %v vs %v", p2.Switching, p1.Switching)
	}
	if p2.Leakage != p1.Leakage {
		t.Fatal("leakage should not depend on Vdd in this model")
	}
}

func TestPowerGrowsWithWireLength(t *testing.T) {
	d, cons := oneGate(t)
	a := sta.New(d, cons)
	before := Analyze(a, 1.0).Switching
	d.Ports[1].X = 1000 // "out": long wire on n1
	a.Update()
	after := Analyze(a, 1.0).Switching
	if after <= before {
		t.Fatalf("longer wire should burn more switching power: %v <= %v", after, before)
	}
}

func TestZeroPeriodNoDynamic(t *testing.T) {
	d, cons := oneGate(t)
	cons.ClockPeriod = 0
	a := sta.New(d, cons)
	rep := Analyze(a, 1.0)
	if rep.Switching != 0 || rep.Internal != 0 {
		t.Fatalf("no clock -> no dynamic power, got %+v", rep)
	}
	if rep.Leakage == 0 {
		t.Fatal("leakage should remain")
	}
}

func TestSwitchingPowerScalesWithActivity(t *testing.T) {
	d, cons := oneGate(t)
	lo := cons
	lo.InputActivity = 0.1
	hi := cons
	hi.InputActivity = 0.2
	pLo := Analyze(sta.New(d, lo), 1.0)
	pHi := Analyze(sta.New(d, hi), 1.0)
	if math.Abs(pHi.Switching-2*pLo.Switching)/pLo.Switching > 1e-9 {
		t.Fatalf("switching should scale linearly with activity: %v vs %v", pHi.Switching, pLo.Switching)
	}
	if math.Abs(pHi.Internal-2*pLo.Internal)/pLo.Internal > 1e-9 {
		t.Fatalf("internal should scale linearly with activity")
	}
}

func TestPowerScalesWithFrequency(t *testing.T) {
	d, cons := oneGate(t)
	slow := cons
	slow.ClockPeriod = 2e-9
	fast := cons
	fast.ClockPeriod = 1e-9
	pSlow := Analyze(sta.New(d, slow), 1.0)
	pFast := Analyze(sta.New(d, fast), 1.0)
	if math.Abs(pFast.Switching-2*pSlow.Switching)/pSlow.Switching > 1e-9 {
		t.Fatal("switching should scale with frequency")
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
