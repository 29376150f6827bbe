package sta

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ppaclust/internal/netlist"
)

// A brute-force timing oracle: on small random DAGs it enumerates every
// startpoint-to-endpoint path and sums each one's delays in path order,
// sharing no propagation code with the analyzer. lib()'s tables are
// constants, so a delay is the table's one value and no slew enters.

// bfDAG is a generated design and the connectivity the oracle walks: the
// sinks of the net each driver pin drives, and that net's id.
type bfDAG struct {
	d       *netlist.Design
	cons    Constraints
	fanout  map[netlist.PinRef][]netlist.PinRef
	netOf   map[netlist.PinRef]int
	clockAt map[int]float64 // register instance -> clock arrival at its CK
	starts  []netlist.PinRef
}

// bfPath is one enumerated path, pins and nets in the form TopPaths reports
// them (a register launch starts at its CK pin). dl[i] is the delay of the
// hop into pins[i] (the start time at the first data pin) and ats[i] the
// arrival there, the delays so far added in path order; both are NaN at the
// CK pin, which is not on the data path.
type bfPath struct {
	pins    []netlist.PinRef
	nets    []int
	dl, ats []float64
}

func (p bfPath) end() netlist.PinRef { return p.pins[len(p.pins)-1] }
func (p bfPath) at() float64         { return p.ats[len(p.ats)-1] }

// connect puts sink on the net driver drives, creating the net on first use.
func (g *bfDAG) connect(driver, sink netlist.PinRef) {
	ni, ok := g.netOf[driver]
	if !ok {
		n := g.d.AddNet(fmt.Sprintf("n%d", len(g.d.Nets)))
		g.d.Connect(n, driver)
		ni = n.ID
		g.netOf[driver] = ni
	}
	g.d.Connect(g.d.Nets[ni], sink)
	g.fanout[driver] = append(g.fanout[driver], sink)
}

// randomDAG builds a design of at most 12 gates from one seed: a launching
// register fed by an input port and a capturing one, two INV branches placed
// on one spot so they reach a NAND2 at equal arrival, 3 to 7 random gates
// whose inputs pick among the earlier drivers (so fan-out reconverges), one
// or two output ports, a random placement, random clock arrivals, period and
// input delay. Odd seeds ignore wire parasitics.
func randomDAG(seed int64) *bfDAG {
	rng := rand.New(rand.NewSource(seed))
	l := lib()
	g := &bfDAG{
		d:       netlist.NewDesign(fmt.Sprintf("dag%d", seed), l),
		fanout:  make(map[netlist.PinRef][]netlist.PinRef),
		netOf:   make(map[netlist.PinRef]int),
		clockAt: make(map[int]float64),
	}
	d := g.d
	g.cons = DefaultConstraints(100e-12 + 200e-12*rng.Float64())
	g.cons.InputDelay = 20e-12 * rng.Float64()
	g.cons.ZeroWire = seed%2 == 1
	place := func(x, y *float64) { *x, *y = 50*rng.Float64(), 50*rng.Float64() }
	port := func(name string, dir netlist.PinDir) netlist.PinRef {
		p := d.AddPort(name, dir)
		place(&p.X, &p.Y)
		return pinRef(d, -1, name)
	}
	gate := func(master string) *netlist.Instance {
		inst := d.AddInstance(fmt.Sprintf("g%d", len(d.Insts)), l.Master(master))
		place(&inst.X, &inst.Y)
		return inst
	}
	pin := func(inst *netlist.Instance, name string) netlist.PinRef { return pinRef(d, inst.ID, name) }

	clk := port("clk", netlist.DirInput)
	in0 := port("in0", netlist.DirInput)
	in1 := port("in1", netlist.DirInput)
	cn := d.AddNet("clk")
	cn.Clock = true
	d.Connect(cn, clk)
	ffs := []*netlist.Instance{gate("DFF"), gate("DFF")}
	for _, ff := range ffs {
		d.Connect(cn, pin(ff, "CK"))
		g.clockAt[ff.ID] = 80e-12 * rng.Float64()
		g.starts = append(g.starts, pin(ff, "Q"))
	}
	g.starts = append(g.starts, in0, in1)
	g.connect(in0, pin(ffs[0], "D"))
	drivers := []netlist.PinRef{in0, in1, pin(ffs[0], "Q")}

	src := drivers[rng.Intn(len(drivers))]
	b0, b1, join := gate("INV"), gate("INV"), gate("NAND2")
	b1.X, b1.Y = b0.X, b0.Y
	g.connect(src, pin(b0, "A"))
	g.connect(src, pin(b1, "A"))
	g.connect(pin(b0, "Y"), pin(join, "A"))
	g.connect(pin(b1, "Y"), pin(join, "B"))
	drivers = append(drivers, pin(b0, "Y"), pin(join, "Y"))

	for k := 3 + rng.Intn(5); k > 0; k-- {
		if rng.Intn(2) == 0 {
			inv := gate("INV")
			g.connect(drivers[rng.Intn(len(drivers))], pin(inv, "A"))
			drivers = append(drivers, pin(inv, "Y"))
			continue
		}
		nand := gate("NAND2")
		g.connect(drivers[rng.Intn(len(drivers))], pin(nand, "A"))
		g.connect(drivers[rng.Intn(len(drivers))], pin(nand, "B"))
		drivers = append(drivers, pin(nand, "Y"))
	}
	g.connect(drivers[len(drivers)-1], pin(ffs[1], "D"))
	drivers = append(drivers, pin(ffs[1], "Q"))
	for o := 1 + rng.Intn(2); o > 0; o-- {
		g.connect(drivers[3+rng.Intn(len(drivers)-3)], port(fmt.Sprintf("out%d", o), netlist.DirOutput))
	}
	return g
}

// wireDelay is the delay of the net arc from driver to sink: zero without
// parasitics, else the Elmore delay of their manhattan distance into the
// sink's load.
func (g *bfDAG) wireDelay(driver, sink netlist.PinRef) float64 {
	if g.cons.ZeroWire {
		return 0
	}
	dx, dy := refPinPos(g.d, driver)
	sx, sy := refPinPos(g.d, sink)
	w := math.Abs(sx-dx) + math.Abs(sy-dy)
	c := g.cons.PortCap
	if !sink.IsPort() {
		c = g.d.Insts[sink.Inst].Master.Pins[sink.Pin].Cap
	}
	return WireResPerMicron * w * (WireCapPerMicron*w/2 + c)
}

// constArc is the one value of the constant delay of out's arc from pin from.
func constArc(m *netlist.Master, out, from int) float64 {
	for _, arc := range m.Pins[out].Arcs {
		if arc.From == from {
			return arc.Delay.Values[0][0]
		}
	}
	panic("no arc")
}

// paths enumerates every path from every startpoint to every endpoint (an
// output port or a register D pin).
func (g *bfDAG) paths() []bfPath {
	var out []bfPath
	var walk func(driver netlist.PinRef, p bfPath)
	walk = func(driver netlist.PinRef, p bfPath) {
		for _, sink := range g.fanout[driver] {
			q := bfPath{
				pins: append([]netlist.PinRef(nil), p.pins...),
				nets: append(append([]int(nil), p.nets...), g.netOf[driver]),
				dl:   append([]float64(nil), p.dl...),
				ats:  append([]float64(nil), p.ats...),
			}
			q.hop(sink, g.wireDelay(driver, sink))
			if sink.IsPort() || g.d.Insts[sink.Inst].Master.Name == "DFF" {
				out = append(out, q)
				continue
			}
			m := g.d.Insts[sink.Inst].Master
			y := netlist.PinRef{Inst: sink.Inst, Pin: m.PinIndex("Y")}
			q.hop(y, constArc(m, y.Pin, sink.Pin))
			walk(y, q)
		}
	}
	for _, s := range g.starts {
		if s.IsPort() {
			walk(s, bfPath{pins: []netlist.PinRef{s}, dl: []float64{g.cons.InputDelay}, ats: []float64{g.cons.InputDelay}})
			continue
		}
		m := g.d.Insts[s.Inst].Master
		ck := netlist.PinRef{Inst: s.Inst, Pin: m.PinIndex("CK")}
		launch := g.clockAt[s.Inst] + constArc(m, s.Pin, ck.Pin)
		walk(s, bfPath{
			pins: []netlist.PinRef{ck, s},
			dl:   []float64{math.NaN(), launch},
			ats:  []float64{math.NaN(), launch},
		})
	}
	return out
}

// hop extends p by pin, reached after delay.
func (p *bfPath) hop(pin netlist.PinRef, delay float64) {
	p.pins = append(p.pins, pin)
	p.dl = append(p.dl, delay)
	p.ats = append(p.ats, p.at()+delay)
}

// required is the setup required time at endpoint e.
func (g *bfDAG) required(e netlist.PinRef) float64 {
	T := g.cons.ClockPeriod
	if e.IsPort() {
		return T - g.cons.OutputDelay
	}
	return T + g.clockAt[e.Inst] - setupTime
}

func samePath(p Path, q bfPath) bool {
	return slices.Equal(p.Pins, q.pins) && slices.Equal(p.Nets, q.nets)
}

// TestBruteForceOracle checks the analyzer against path enumeration on 24
// random DAGs, bit for bit: every pin's arrival is the latest path arrival
// into it and its required time the least over its paths, every endpoint's
// slack the least over its paths, WHS the least hold slack over the register
// paths (0 when none fails), and every reported path one of the enumerated
// ones, arriving at its endpoint's arrival.
func TestBruteForceOracle(t *testing.T) {
	var ties, holdFails, holdClean int
	for seed := int64(1); seed <= 24; seed++ {
		g := randomDAG(seed)
		a := New(g.d, g.cons)
		var list []ClockArrival
		for inst, at := range g.clockAt {
			list = append(list, ClockArrival{Pin: pinRef(g.d, inst, "CK"), T: at})
		}
		a.SetClockArrivalList(list)
		paths := g.paths()

		// Latest arrival into every pin a path passes, earliest into every
		// endpoint, and how many paths reach each endpoint at each arrival.
		late := make(map[netlist.PinRef]float64)
		early := make(map[netlist.PinRef]float64)
		count := make(map[netlist.PinRef]map[uint64]int)
		for _, p := range paths {
			for i, pin := range p.pins {
				if old, ok := late[pin]; !math.IsNaN(p.ats[i]) && (!ok || p.ats[i] > old) {
					late[pin] = p.ats[i]
				}
			}
			e := p.end()
			if old, ok := early[e]; !ok || p.at() < old {
				early[e] = p.at()
			}
			if count[e] == nil {
				count[e] = make(map[uint64]int)
			}
			count[e][math.Float64bits(p.at())]++
		}
		for e, n := range count {
			if n[math.Float64bits(late[e])] > 1 {
				ties++
			}
		}
		for pin, at := range late {
			got, ok := a.arrivalAt(pin)
			if !ok || math.Float64bits(got) != math.Float64bits(at) {
				t.Errorf("seed %d: arrival at %v = %v (reached %v), paths give %v", seed, pin, got, ok, at)
			}
		}
		// Required time at every pin a path passes: the least over its paths
		// of the endpoint's required time minus the delays after the pin,
		// subtracted from the endpoint back.
		req := make(map[netlist.PinRef]float64)
		for _, p := range paths {
			r := g.required(p.end())
			for i := len(p.pins) - 1; i >= 0 && !math.IsNaN(p.dl[i]); i-- {
				if old, ok := req[p.pins[i]]; !ok || r < old {
					req[p.pins[i]] = r
				}
				r -= p.dl[i]
			}
		}
		for pin, r := range req {
			n, _ := a.nodeOfPin(pin)
			if !a.hasRAT[n] || math.Float64bits(a.rat[n]) != math.Float64bits(r) {
				t.Errorf("seed %d: required at %v = %v (constrained %v), paths give %v", seed, pin, a.rat[n], a.hasRAT[n], r)
			}
		}

		// Setup: slack per endpoint, and each reported path.
		top := a.TopPaths(0)
		if len(top) != len(early) {
			t.Errorf("seed %d: %d paths reported, %d endpoints have a path", seed, len(top), len(early))
		}
		for _, p := range top {
			want := math.Inf(1)
			for _, q := range paths {
				if q.end() == p.Endpoint {
					want = math.Min(want, g.required(p.Endpoint)-q.at())
				}
			}
			if math.Float64bits(p.Slack) != math.Float64bits(want) {
				t.Errorf("seed %d: slack at %v = %v, paths give %v", seed, p.Endpoint, p.Slack, want)
			}
			found := false
			for _, q := range paths {
				if samePath(p, q) {
					found = true
					if math.Float64bits(q.at()) != math.Float64bits(late[p.Endpoint]) {
						t.Errorf("seed %d: reported path to %v arrives at %v, its endpoint at %v", seed, p.Endpoint, q.at(), late[p.Endpoint])
					}
				}
			}
			if !found {
				t.Errorf("seed %d: reported path %v / nets %v is no enumerated path", seed, p.Pins, p.Nets)
			}
		}

		// Hold at the register D pins.
		whs := 0.0
		for e, at := range early {
			if e.IsPort() {
				continue
			}
			if s := at - (g.clockAt[e.Inst] + holdTime); s < whs {
				whs = s
			}
		}
		hs := a.HoldTiming()
		if math.Float64bits(hs.WHS) != math.Float64bits(whs) {
			t.Errorf("seed %d: WHS %v, paths give %v", seed, hs.WHS, whs)
		}
		if whs < 0 {
			holdFails++
		} else {
			holdClean++
		}
	}
	// The generator must reach the cases the checks are about.
	t.Logf("%d endpoints with tied worst paths, %d seeds failing hold, %d clean", ties, holdFails, holdClean)
	if ties == 0 || holdFails == 0 || holdClean == 0 {
		t.Errorf("generator coverage: %d endpoints with tied worst paths, %d seeds failing hold, %d clean", ties, holdFails, holdClean)
	}
}
