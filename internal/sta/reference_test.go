package sta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ppaclust/internal/netlist"
)

// refAnalyzer is the pre-CSR, map-based timing analyzer kept verbatim as a
// test oracle: nodes keyed by PinID through a hash map, pointer-API netlist
// walks (Design.Driver, PinPos, NetHPWL), AoS node records. The production
// Analyzer rebuilt the same graph on netlist.Compact with SoA value arrays;
// these tests pin the rewrite to the original bit for bit.
type refAnalyzer struct {
	d    *netlist.Design
	cons Constraints

	nodes   []refNode
	edges   []refEdge
	in      [][]int
	out     [][]int
	nodeOf  map[PinID]int
	topo    []int
	netLoad []float64

	clockArrival map[int]float64
}

type refEdge struct {
	from, to int
	isCell   bool
	arc      *netlist.TimingArc
	wireLen  float64
}

type refNode struct {
	id     PinID
	kind   nodeKind
	net    int
	at     float64
	rat    float64
	slew   float64
	hasAT  bool
	hasRAT bool
	isClk  bool
	endp   bool
}

func newRef(d *netlist.Design, cons Constraints) *refAnalyzer {
	r := &refAnalyzer{d: d, cons: cons, nodeOf: make(map[PinID]int)}
	r.build()
	return r
}

func (r *refAnalyzer) addNode(id PinID, kind nodeKind) int {
	if idx, ok := r.nodeOf[id]; ok {
		return idx
	}
	idx := len(r.nodes)
	r.nodes = append(r.nodes, refNode{id: id, kind: kind, net: -1})
	r.nodeOf[id] = idx
	return idx
}

func (r *refAnalyzer) addEdge(e refEdge) {
	idx := len(r.edges)
	r.edges = append(r.edges, e)
	r.out[e.from] = append(r.out[e.from], idx)
	r.in[e.to] = append(r.in[e.to], idx)
}

func (r *refAnalyzer) build() {
	d := r.d
	clockPorts := make(map[string]bool)
	for _, p := range r.cons.ClockPorts {
		clockPorts[p] = true
	}
	for _, p := range d.Ports {
		kind := nodePortIn
		if p.Dir == netlist.DirOutput {
			kind = nodePortOut
		}
		n := r.addNode(PinID{Inst: -1, Pin: p.Name}, kind)
		if clockPorts[p.Name] {
			r.nodes[n].isClk = true
		}
	}
	for _, net := range d.Nets {
		for _, pr := range net.Pins {
			if pr.IsPort() {
				continue
			}
			mp := d.Insts[pr.Inst].Master.Pin(pr.Pin)
			if mp == nil {
				continue
			}
			kind := nodeInput
			if mp.Dir == netlist.DirOutput {
				kind = nodeOutput
			}
			r.addNode(PinID{pr.Inst, pr.Pin}, kind)
		}
	}
	r.in = make([][]int, len(r.nodes))
	r.out = make([][]int, len(r.nodes))
	r.netLoad = make([]float64, len(d.Nets))

	for _, net := range d.Nets {
		drv, ok := d.Driver(net)
		if !ok {
			continue
		}
		drvNode := r.nodeOf[PinID{drv.Inst, drv.Pin}]
		dx, dy := d.PinPos(drv)
		var load float64
		for _, pr := range net.Pins {
			if pr == drv {
				continue
			}
			var sinkNode int
			if pr.IsPort() {
				port := d.Port(pr.Pin)
				if port == nil || port.Dir != netlist.DirOutput {
					continue
				}
				sinkNode = r.nodeOf[PinID{-1, pr.Pin}]
				load += r.cons.PortCap
			} else {
				mp := d.Insts[pr.Inst].Master.Pin(pr.Pin)
				if mp == nil || mp.Dir == netlist.DirOutput {
					continue
				}
				sinkNode = r.nodeOf[PinID{pr.Inst, pr.Pin}]
				load += mp.Cap
			}
			wl := 0.0
			if !r.cons.ZeroWire {
				sx, sy := d.PinPos(pr)
				wl = math.Abs(sx-dx) + math.Abs(sy-dy)
			}
			r.addEdge(refEdge{from: drvNode, to: sinkNode, wireLen: wl})
			r.nodes[sinkNode].net = net.ID
		}
		r.nodes[drvNode].net = net.ID
		if r.cons.ZeroWire {
			r.netLoad[net.ID] = load
		} else {
			r.netLoad[net.ID] = load + WireCapPerMicron*d.NetHPWL(net)
		}
	}

	for _, inst := range d.Insts {
		for pi := range inst.Master.Pins {
			mp := &inst.Master.Pins[pi]
			if mp.Dir != netlist.DirOutput {
				continue
			}
			toNode, ok := r.nodeOf[PinID{inst.ID, mp.Name}]
			if !ok {
				continue
			}
			for ai := range mp.Arcs {
				arc := &mp.Arcs[ai]
				if arc.Kind != netlist.ArcComb && arc.Kind != netlist.ArcClkToQ {
					continue
				}
				fromNode, ok := r.nodeOf[PinID{inst.ID, arc.From}]
				if !ok {
					continue
				}
				r.addEdge(refEdge{from: fromNode, to: toNode, isCell: true, arc: arc})
			}
		}
	}

	// Clock marking.
	var queue []int
	for i := range r.nodes {
		if r.nodes[i].isClk {
			queue = append(queue, i)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		for _, ei := range r.out[n] {
			e := &r.edges[ei]
			to := &r.nodes[e.to]
			if to.isClk {
				continue
			}
			if e.isCell && e.arc.Kind != netlist.ArcComb {
				continue
			}
			to.isClk = true
			queue = append(queue, e.to)
		}
	}
	for i := range r.nodes {
		nd := &r.nodes[i]
		if nd.id.Inst >= 0 {
			mp := d.Insts[nd.id.Inst].Master.Pin(nd.id.Pin)
			if mp != nil && mp.Clock {
				nd.isClk = true
			}
		}
	}
	// Endpoints.
	for i := range r.nodes {
		nd := &r.nodes[i]
		switch nd.kind {
		case nodePortOut:
			nd.endp = true
		case nodeInput:
			mp := d.Insts[nd.id.Inst].Master.Pin(nd.id.Pin)
			if mp != nil {
				for ai := range mp.Arcs {
					if mp.Arcs[ai].Kind == netlist.ArcSetup {
						nd.endp = true
					}
				}
			}
		}
	}

	// Kahn topo sort with launch arcs excluded, IDs appended on cycles.
	n := len(r.nodes)
	indeg := make([]int, n)
	enabled := make([]bool, len(r.edges))
	for ei, e := range r.edges {
		if e.isCell && e.arc.Kind == netlist.ArcClkToQ {
			continue
		}
		enabled[ei] = true
		indeg[e.to]++
	}
	q := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			q = append(q, i)
		}
	}
	order := make([]int, 0, n)
	for qi := 0; qi < len(q); qi++ {
		v := q[qi]
		order = append(order, v)
		for _, ei := range r.out[v] {
			if !enabled[ei] {
				continue
			}
			t := r.edges[ei].to
			indeg[t]--
			if indeg[t] == 0 {
				q = append(q, t)
			}
		}
	}
	if len(order) < n {
		seen := make([]bool, n)
		for _, v := range order {
			seen[v] = true
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				order = append(order, i)
			}
		}
	}
	r.topo = order
}

func (r *refAnalyzer) setClockArrivals(arrivals map[PinID]float64) {
	if arrivals == nil {
		r.clockArrival = nil
		return
	}
	r.clockArrival = make(map[int]float64, len(arrivals))
	for id, t := range arrivals {
		if n, ok := r.nodeOf[id]; ok {
			r.clockArrival[n] = t
		}
	}
}

func (r *refAnalyzer) clockAtInst(inst int, clkPin string) float64 {
	if r.clockArrival == nil {
		return 0
	}
	if n, ok := r.nodeOf[PinID{inst, clkPin}]; ok {
		return r.clockArrival[n]
	}
	return 0
}

func (r *refAnalyzer) loadOf(outNode int) float64 {
	netID := r.nodes[outNode].net
	if netID < 0 {
		return 0
	}
	return r.netLoad[netID]
}

func (r *refAnalyzer) sinkCap(sinkNode int) float64 {
	nd := &r.nodes[sinkNode]
	if nd.id.Inst < 0 {
		return r.cons.PortCap
	}
	mp := r.d.Insts[nd.id.Inst].Master.Pin(nd.id.Pin)
	if mp == nil {
		return 0
	}
	return mp.Cap
}

func (r *refAnalyzer) run() {
	for i := range r.nodes {
		nd := &r.nodes[i]
		nd.at = math.Inf(-1)
		nd.hasAT = false
		nd.slew = r.cons.InputSlew
		if nd.kind == nodePortIn {
			if nd.isClk {
				nd.at = 0
			} else {
				nd.at = r.cons.InputDelay
			}
			nd.hasAT = true
		}
	}
	for _, v := range r.topo {
		nd := &r.nodes[v]
		for _, ei := range r.in[v] {
			e := &r.edges[ei]
			if !e.isCell || e.arc.Kind != netlist.ArcClkToQ {
				continue
			}
			load := r.loadOf(v)
			clkAt := r.clockAtInst(nd.id.Inst, e.arc.From)
			slewIn := r.nodes[e.from].slew
			at := clkAt + e.arc.Delay.Lookup(slewIn, load)
			if at > nd.at {
				nd.at = at
				nd.hasAT = true
				nd.slew = e.arc.Slew.Lookup(slewIn, load)
			}
		}
		if !nd.hasAT {
			continue
		}
		for _, ei := range r.out[v] {
			e := &r.edges[ei]
			if e.isCell && e.arc.Kind == netlist.ArcClkToQ {
				continue
			}
			to := &r.nodes[e.to]
			var at, slew float64
			if e.isCell {
				load := r.loadOf(e.to)
				at = nd.at + e.arc.Delay.Lookup(nd.slew, load)
				slew = e.arc.Slew.Lookup(nd.slew, load)
			} else {
				sinkCap := r.sinkCap(e.to)
				wd := WireResPerMicron * e.wireLen * (WireCapPerMicron*e.wireLen/2 + sinkCap)
				at = nd.at + wd
				slew = nd.slew + 0.2*wd
			}
			if at > to.at {
				to.at = at
				to.hasAT = true
				to.slew = slew
			}
		}
	}

	T := r.cons.ClockPeriod
	for i := range r.nodes {
		nd := &r.nodes[i]
		nd.rat = math.Inf(1)
		nd.hasRAT = false
	}
	for i := range r.nodes {
		nd := &r.nodes[i]
		if !nd.endp {
			continue
		}
		switch nd.kind {
		case nodePortOut:
			nd.rat = T - r.cons.OutputDelay
			nd.hasRAT = true
		case nodeInput:
			mp := r.d.Insts[nd.id.Inst].Master.Pin(nd.id.Pin)
			for ai := range mp.Arcs {
				arc := &mp.Arcs[ai]
				if arc.Kind != netlist.ArcSetup {
					continue
				}
				setup := arc.Delay.Lookup(nd.slew, 0)
				captureClk := r.clockAtInst(nd.id.Inst, arc.From)
				rat := T + captureClk - setup
				if rat < nd.rat {
					nd.rat = rat
					nd.hasRAT = true
				}
			}
		}
	}
	for i := len(r.topo) - 1; i >= 0; i-- {
		v := r.topo[i]
		nd := &r.nodes[v]
		if !nd.hasRAT {
			continue
		}
		for _, ei := range r.in[v] {
			e := &r.edges[ei]
			if e.isCell && e.arc.Kind == netlist.ArcClkToQ {
				continue
			}
			from := &r.nodes[e.from]
			var rat float64
			if e.isCell {
				load := r.loadOf(v)
				rat = nd.rat - e.arc.Delay.Lookup(from.slew, load)
			} else {
				sinkCap := r.sinkCap(v)
				wd := WireResPerMicron * e.wireLen * (WireCapPerMicron*e.wireLen/2 + sinkCap)
				rat = nd.rat - wd
			}
			if rat < from.rat {
				from.rat = rat
				from.hasRAT = true
			}
		}
	}
}

// compareToRef checks every reference node's at/rat/slew/hasAT/hasRAT against
// the production analyzer, bit for bit, and that node counts agree.
func compareToRef(t *testing.T, tag string, a *Analyzer, r *refAnalyzer) {
	t.Helper()
	if a.numNodes() != len(r.nodes) {
		t.Fatalf("%s: node count %d != reference %d", tag, a.numNodes(), len(r.nodes))
	}
	for i := range r.nodes {
		rn := &r.nodes[i]
		n, ok := a.nodeOfPin(rn.id)
		if !ok {
			t.Fatalf("%s: pin %v missing from compact analyzer", tag, rn.id)
		}
		if a.hasAT[n] != rn.hasAT || a.hasRAT[n] != rn.hasRAT {
			t.Fatalf("%s: pin %v flags differ (hasAT %v/%v hasRAT %v/%v)",
				tag, rn.id, a.hasAT[n], rn.hasAT, a.hasRAT[n], rn.hasRAT)
		}
		if math.Float64bits(a.at[n]) != math.Float64bits(rn.at) ||
			math.Float64bits(a.rat[n]) != math.Float64bits(rn.rat) ||
			math.Float64bits(a.slew[n]) != math.Float64bits(rn.slew) {
			t.Fatalf("%s: pin %v differs: at %v/%v rat %v/%v slew %v/%v",
				tag, rn.id, a.at[n], rn.at, a.rat[n], rn.rat, a.slew[n], rn.slew)
		}
	}
}

// tangledDesign builds an irregular placed netlist exercising the corners the
// regular fixtures miss: multi-fanout nets, shared clock tree through a
// buffer, output ports, multi-input gates, and a seeded random placement.
//
// The clock buffer makes every launch arc read a CK slew that the oracle's
// push along topo has not written yet (Q is a source there, CK is not). The
// oracle and the analyzer still agree bit for bit because lib()'s tables are
// all netlist.Const: no delay depends on slew, so the stale read is invisible
// here. TestLaunchReadsFinalClockSlew uses slew-sensitive tables and checks
// the analyzer against the formula instead.
func tangledDesign(t *testing.T, cells int) *netlist.Design {
	t.Helper()
	l := lib()
	d := netlist.NewDesign("tangled", l)
	rng := rand.New(rand.NewSource(7))
	clk, _ := d.AddPort("clk", netlist.DirInput)
	clk.X, clk.Y = 0, 0
	cn, _ := d.AddNet("clkroot")
	cn.Clock = true
	d.Connect(cn, netlist.PinRef{Inst: -1, Pin: "clk"})
	cbuf, _ := d.AddInstance("cbuf", l.Master("INV"))
	cbuf.X, cbuf.Y = 1, 1
	d.Connect(cn, netlist.PinRef{Inst: cbuf.ID, Pin: "A"})
	ctree, _ := d.AddNet("clktree")
	ctree.Clock = true
	d.Connect(ctree, netlist.PinRef{Inst: cbuf.ID, Pin: "Y"})

	in0, _ := d.AddPort("in0", netlist.DirInput)
	in0.X, in0.Y = 0, 5
	in1, _ := d.AddPort("in1", netlist.DirInput)
	in1.X, in1.Y = 0, 9
	drivers := []netlist.PinRef{{Inst: -1, Pin: "in0"}, {Inst: -1, Pin: "in1"}}
	masters := []string{"INV", "NAND2", "DFF"}
	for i := 0; i < cells; i++ {
		m := l.Master(masters[rng.Intn(len(masters))])
		g, _ := d.AddInstance(fmt.Sprintf("u%d", i), m)
		g.X, g.Y = 100*rng.Float64(), 100*rng.Float64()
		if m.Name == "DFF" {
			n, _ := d.AddNet(fmt.Sprintf("d%d", i))
			d.Connect(n, drivers[rng.Intn(len(drivers))])
			d.Connect(n, netlist.PinRef{Inst: g.ID, Pin: "D"})
			d.Connect(ctree, netlist.PinRef{Inst: g.ID, Pin: "CK"})
			drivers = append(drivers, netlist.PinRef{Inst: g.ID, Pin: "Q"})
			continue
		}
		ins := []string{"A"}
		if m.Name == "NAND2" {
			ins = append(ins, "B")
		}
		for _, pin := range ins {
			n, _ := d.AddNet(fmt.Sprintf("w%d%s", i, pin))
			d.Connect(n, drivers[rng.Intn(len(drivers))])
			d.Connect(n, netlist.PinRef{Inst: g.ID, Pin: pin})
			// Random extra fanout onto the same net.
			if rng.Intn(3) == 0 && i > 2 {
				d.Connect(n, netlist.PinRef{Inst: d.Insts[rng.Intn(i)].ID, Pin: "A"})
			}
		}
		drivers = append(drivers, netlist.PinRef{Inst: g.ID, Pin: "Y"})
	}
	out, _ := d.AddPort("dout", netlist.DirOutput)
	out.X, out.Y = 120, 60
	on, _ := d.AddNet("outnet")
	d.Connect(on, drivers[len(drivers)-1])
	d.Connect(on, netlist.PinRef{Inst: -1, Pin: "dout"})
	return d
}

// TestCompactMatchesReferenceFull pins the CSR/SoA analyzer to the map-based
// reference on full propagation: every arrival, required, and slew must match
// bit for bit, on one worker and on four, with and without wire parasitics.
func TestCompactMatchesReferenceFull(t *testing.T) {
	fixtures := []struct {
		name string
		d    *netlist.Design
	}{
		{"pipeline", benchPipeline(8, 6)},
		{"tangled", tangledDesign(t, 120)},
		{"regpair", regPair(t)},
	}
	for _, fx := range fixtures {
		for _, zeroWire := range []bool{false, true} {
			cons := DefaultConstraints(0.4e-9)
			cons.ClockPorts = []string{"clk"}
			cons.ZeroWire = zeroWire
			r := newRef(fx.d, cons)
			r.run()
			a := New(fx.d, cons)
			a.run()
			compareToRef(t, fmt.Sprintf("%s/zeroWire=%v", fx.name, zeroWire), a, r)
		}
	}
}

// TestCompactMatchesReferenceClockArrivals checks the dense clockAt array
// against the reference's map under CTS-style useful skew.
func TestCompactMatchesReferenceClockArrivals(t *testing.T) {
	d := benchPipeline(6, 4)
	cons := DefaultConstraints(0.4e-9)
	cons.ClockPorts = []string{"clk"}

	arr := make(map[PinID]float64)
	var list []ClockArrival
	for _, inst := range d.Insts {
		if inst.Master.Name != "DFF" {
			continue
		}
		t := 1e-12 * float64(inst.ID%7)
		arr[PinID{inst.ID, "CK"}] = t
		list = append(list, ClockArrival{Inst: inst.ID, Pin: "CK", T: t})
	}
	r := newRef(d, cons)
	r.setClockArrivals(arr)
	r.run()

	al := New(d, cons)
	al.SetClockArrivalList(list)
	al.run()
	compareToRef(t, "list", al, r)
}

// TestUpdateMatchesReference moves cells, calls Update, and checks the result
// is bit-identical to a reference built fresh from the moved design.
func TestUpdateMatchesReference(t *testing.T) {
	d := benchPipeline(8, 6)
	cons := DefaultConstraints(0.4e-9)
	cons.ClockPorts = []string{"clk"}
	a := New(d, cons)
	a.run()

	for _, id := range []int{3, 11, 25} {
		d.Insts[id].X += 2.5
		d.Insts[id].Y += 1.25
	}
	a.Update()
	a.run()

	r := newRef(d, cons)
	r.run()
	compareToRef(t, "update", a, r)
}
