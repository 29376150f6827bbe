// Package sta is a graph-based static timing analyzer, the reproduction's
// stand-in for OpenSTA. It computes arrival/required times and slacks over a
// pin-level timing graph, enumerates the worst path per endpoint (the
// equivalent of OpenSTA's findPathEnds with endpoint_count=1), and propagates
// vectorless switching activity (the equivalent of findClkedActivity).
//
// The timing graph is built from the netlist.Compact CSR view and stored as
// flat struct-of-arrays: int32 node/edge identifiers, per-node float64
// arrival/required/slew arrays, and int32 in/out adjacency CSR. A pin
// (netlist.PinRef) finds its node through a dense (instance, master-pin
// index) -> node table, and CTS clock arrivals live in a dense per-node
// array, so a million-cell graph builds and propagates without per-pin
// hashing.
//
// Units: seconds, farads, watts, microns.
package sta

import (
	"fmt"
	"math"
	"sort"

	"ppaclust/internal/netlist"
)

// Constraints is the subset of SDC the flow consumes.
type Constraints struct {
	ClockPeriod   float64  // target clock period (s)
	ClockPorts    []string // clock root ports, read only by sdc and the loader, which marks their nets Clock
	InputDelay    float64  // arrival at non-clock input ports (s)
	OutputDelay   float64  // required margin at output ports (s)
	InputSlew     float64  // transition at input ports (s)
	PortCap       float64  // load presented by output ports (F)
	InputActivity float64  // toggles per cycle at data inputs
	// ZeroWire ignores wire parasitics entirely (zero wire delay and load),
	// the mode used when timing is extracted from an unplaced netlist, as in
	// Algorithm 1 lines 4-5.
	ZeroWire bool
}

// DefaultConstraints returns reasonable defaults for a given clock period.
func DefaultConstraints(period float64) Constraints {
	return Constraints{
		ClockPeriod:   period,
		InputDelay:    0.1 * period,
		OutputDelay:   0.1 * period,
		InputSlew:     20e-12,
		PortCap:       4e-15,
		InputActivity: 0.15,
	}
}

// Wire RC constants (per micron), loosely calibrated to a 45nm metal stack.
const (
	WireCapPerMicron = 0.2e-15 // F/um
	WireResPerMicron = 2.0     // ohm/um
)

type nodeKind uint8

const (
	nodeInput   nodeKind = iota // instance input pin
	nodeOutput                  // instance output pin
	nodePortIn                  // top-level input port
	nodePortOut                 // top-level output port
)

// Analyzer holds the timing graph of one design under one set of constraints.
type Analyzer struct {
	d    *netlist.Design
	cons Constraints

	// Workers is ignored; kept for frozen benchmark/replay.go.
	Workers int

	// Node SoA. Node i's identity is (nodeInst[i], nodeMP[i]): an instance
	// ID plus master-pin index, or a port encoded as -1-portIdx with
	// nodeMP = -1. Ports occupy nodes [0, len(d.Ports)) in port order.
	nodeInst []int32
	nodeMP   []int32
	kind     []nodeKind
	net      []int32 // net the pin connects to, -1 if none
	isClk    []bool
	endp     []bool    // timing endpoint (reg D or output port)
	startp   []bool    // timing startpoint (reg CK->Q origin or input port)
	nodeCap  []float64 // sink load contribution: input-pin cap or PortCap
	nodeSlot []int32   // a compact pin slot of the node's pin, -1 if no net arc ends at it

	at, rat, slew []float64
	hasAT, hasRAT []bool
	worstIn       []int32 // in-edge achieving the worst (max) arrival, -1

	// Edge SoA. eArc == nil marks a net arc; cell arcs carry the library arc.
	eFrom, eTo []int32
	eWire      []float64 // net arcs: driver-to-sink manhattan distance
	eArc       []*netlist.TimingArc

	// Adjacency CSR, edge ids ascending per node.
	inOff, inEdge   []int32
	outOff, outEdge []int32

	// Dense pin -> node index: instPinStart[i]+mpIdx slots pinNode, -1 when
	// the pin never appears on a net.
	instPinStart []int32
	pinNode      []int32

	// Timing-check CSR per data input node: the setup and hold arcs of the
	// node's master pin (in mp.Arcs order) with their capture-clock nodes
	// preresolved.
	checkOff []int32
	checkArc []*netlist.TimingArc
	checkClk []int32

	topo      []int32 // topological order over every edge, launch arcs included
	loopEdges int     // edges removed at build to open timing loops

	netLoad   []float64 // total load capacitance per net
	netArcOff []int32   // net -> its net arcs are edge ids [netArcOff[n], netArcOff[n+1])

	clockAt []float64 // per-node clock arrival (from CTS); nil = ideal clock

	activity []float64 // per-node switching activity (toggles/cycle)
	actDone  bool
	timeDone bool

	// Position snapshot for the geometry refresh.
	pos netlist.Positions
}

// New builds the timing graph for the design. The graph uses current pin
// positions for wire delays; call Update after moving cells.
func New(d *netlist.Design, cons Constraints) *Analyzer {
	a := &Analyzer{d: d, cons: cons}
	a.build()
	return a
}

// Design returns the design under analysis.
func (a *Analyzer) Design() *netlist.Design { return a.d }

// Constraints returns the analyzer's constraints.
func (a *Analyzer) Constraints() Constraints { return a.cons }

func (a *Analyzer) numNodes() int { return len(a.nodeInst) }

// pinOf returns the pin of node v.
func (a *Analyzer) pinOf(v int32) netlist.PinRef {
	id := a.nodeInst[v]
	if id < 0 {
		return netlist.PinRef{Inst: -1, Pin: int(-1 - id)}
	}
	return netlist.PinRef{Inst: int(id), Pin: int(a.nodeMP[v])}
}

// nodeOfPin returns the node of pin p (false when the pin is out of range
// or on no net): ports occupy nodes [0, len(Ports)) in order, instance pins
// index the dense pin-node table.
func (a *Analyzer) nodeOfPin(p netlist.PinRef) (int32, bool) {
	if p.IsPort() {
		if p.Pin < 0 || p.Pin >= len(a.d.Ports) {
			return 0, false
		}
		return int32(p.Pin), true
	}
	if p.Inst >= len(a.d.Insts) || p.Pin < 0 || p.Pin >= len(a.d.Insts[p.Inst].Master.Pins) {
		return 0, false
	}
	n := a.pinNode[a.instPinStart[p.Inst]+int32(p.Pin)]
	return n, n >= 0
}

func (a *Analyzer) addNode(inst, mpIdx int32, k nodeKind) int32 {
	idx := int32(len(a.nodeInst)) //ppalint:ignore i32trunc node count <= ports + pin slots, bounded by build's MaxInt32 slot guard
	a.nodeInst = append(a.nodeInst, inst)
	a.nodeMP = append(a.nodeMP, mpIdx)
	a.kind = append(a.kind, k)
	a.net = append(a.net, -1)
	a.isClk = append(a.isClk, false)
	a.endp = append(a.endp, false)
	a.startp = append(a.startp, false)
	a.nodeCap = append(a.nodeCap, 0)
	a.nodeSlot = append(a.nodeSlot, -1)
	return idx
}

func (a *Analyzer) addEdge(from, to int32, arc *netlist.TimingArc) {
	a.eFrom = append(a.eFrom, from)
	a.eTo = append(a.eTo, to)
	a.eArc = append(a.eArc, arc)
	a.eWire = append(a.eWire, 0)
}

// build constructs nodes for every connected pin and port, then net arcs and
// cell arcs, entirely over the compact CSR view: one pass assigns node ids in
// the same first-seen order as the original map-based construction, so the
// graph (and therefore every propagated value) is bit-identical to it.
func (a *Analyzer) build() {
	d := a.d
	c := d.Compact()

	// Dense (instance, master-pin-index) -> node table. Count slots in int
	// first: the per-instance prefix sums below narrow to int32, and past
	// 2^31 pin slots that narrowing would wrap instead of failing.
	slots := 0
	for _, inst := range d.Insts {
		slots += len(inst.Master.Pins)
	}
	if slots > math.MaxInt32 {
		panic(fmt.Sprintf("sta: design has %d instance pin slots, beyond the %d the int32 node table can index", slots, math.MaxInt32)) //ppalint:ignore nopanic capacity assertion behind flow's CompactChecked boundary; New has no error return
	}
	a.instPinStart = make([]int32, len(d.Insts)+1)
	var totalSlots int32
	for i, inst := range d.Insts {
		a.instPinStart[i] = totalSlots
		totalSlots += int32(len(inst.Master.Pins))
	}
	a.instPinStart[len(d.Insts)] = totalSlots
	a.pinNode = make([]int32, totalSlots)
	for i := range a.pinNode {
		a.pinNode[i] = -1
	}

	// Nodes for ports (node i == port i).
	for pi, p := range d.Ports {
		k := nodePortIn
		if p.Dir == netlist.DirOutput {
			k = nodePortOut
		}
		n := a.addNode(int32(-1-pi), -1, k)
		a.nodeCap[n] = a.cons.PortCap
	}
	// Clock roots: the input ports on nets marked as clock nets.
	for _, n := range d.Nets {
		if !n.Clock {
			continue
		}
		for _, p := range n.Pins {
			if p.IsPort() && a.kind[p.Pin] == nodePortIn {
				a.isClk[p.Pin] = true
			}
		}
	}
	// Nodes for instance pins that appear on nets, in net/pin order.
	for ni := range d.Nets {
		for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
			id := c.PinInst[k]
			if id < 0 {
				continue
			}
			mpIdx := c.PinMP[k]
			slot := a.instPinStart[id] + mpIdx
			if a.pinNode[slot] >= 0 {
				continue
			}
			mp := &d.Insts[id].Master.Pins[mpIdx]
			kind := nodeInput
			if mp.Dir == netlist.DirOutput {
				kind = nodeOutput
			}
			n := a.addNode(id, mpIdx, kind)
			a.pinNode[slot] = n
			a.nodeCap[n] = mp.Cap
		}
	}

	a.netLoad = make([]float64, len(d.Nets))
	a.netArcOff = make([]int32, len(d.Nets)+1)

	// Net arcs: driver -> each sink, in net order ahead of every cell arc,
	// so a net's arcs are one run of edge ids. Topology only: refreshAllNets
	// below fills in loads and wire lengths.
	for ni := range d.Nets {
		a.netArcOff[ni] = int32(len(a.eFrom))
		kd := c.NetDrv[ni]
		if kd < 0 {
			continue
		}
		drvNode := a.nodeOfSlot(c, kd)
		for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
			if sink, ok := a.sinkOfSlot(c, kd, k); ok {
				a.addEdge(drvNode, sink, nil)
				a.net[sink] = int32(ni)
				a.nodeSlot[sink] = k
			}
		}
		a.net[drvNode] = int32(ni)
	}
	a.netArcOff[len(d.Nets)] = int32(len(a.eFrom))

	// Cell arcs: combinational and clk->Q edges within each instance.
	for _, inst := range d.Insts {
		base := a.instPinStart[inst.ID]
		for pi := range inst.Master.Pins {
			mp := &inst.Master.Pins[pi]
			if mp.Dir != netlist.DirOutput {
				continue
			}
			toNode := a.pinNode[base+int32(pi)]
			if toNode < 0 {
				continue
			}
			for ai := range mp.Arcs {
				arc := &mp.Arcs[ai]
				if arc.Kind != netlist.ArcComb && arc.Kind != netlist.ArcClkToQ {
					continue
				}
				fromNode := a.pinNode[base+int32(arc.From)]
				if fromNode < 0 {
					continue
				}
				a.addEdge(fromNode, toNode, arc)
			}
		}
	}
	if len(a.eFrom) > math.MaxInt32 {
		panic(fmt.Sprintf("sta: timing graph has %d edges, beyond the %d the int32 edge ids can index", len(a.eFrom), math.MaxInt32)) //ppalint:ignore nopanic capacity assertion behind flow's CompactChecked boundary; New has no error return
	}

	a.buildAdjacency()
	if !a.topoSort() {
		a.cutLoops()
		a.buildAdjacency()
		a.topoSort()
	}
	a.buildCheckIndex()
	a.initValueArrays()
	a.markSpecialNodes()
	a.refreshAllNets()
}

// sinkOfSlot resolves pin slot k of the net driven from slot kd to the node
// the driver's net arc ends at. ok is false for the driver itself (every pin
// equal to it by value), outputs, and ports that are not outputs. Both the graph build and the load refresh walk a net through
// here, so they agree on what its sinks are.
func (a *Analyzer) sinkOfSlot(c *netlist.Compact, kd, k int32) (int32, bool) {
	id, drvID := c.PinInst[k], c.PinInst[kd]
	if id == drvID && (drvID < 0 || c.PinMP[k] == c.PinMP[kd]) {
		return 0, false
	}
	n := a.nodeOfSlot(c, k)
	return n, a.kind[n] == nodeInput || a.kind[n] == nodePortOut
}

// nodeOfSlot resolves a compact pin slot to its node.
func (a *Analyzer) nodeOfSlot(c *netlist.Compact, k int32) int32 {
	id := c.PinInst[k]
	if id < 0 {
		return -1 - id // port index == node index
	}
	return a.pinNode[a.instPinStart[id]+c.PinMP[k]]
}

// buildAdjacency converts the edge lists into in/out CSR with edge ids in
// insertion order per node.
func (a *Analyzer) buildAdjacency() {
	n := a.numNodes()
	nE := len(a.eFrom)
	a.inOff = make([]int32, n+1)
	a.outOff = make([]int32, n+1)
	for ei := 0; ei < nE; ei++ {
		a.outOff[a.eFrom[ei]+1]++
		a.inOff[a.eTo[ei]+1]++
	}
	for i := 1; i <= n; i++ {
		a.inOff[i] += a.inOff[i-1]
		a.outOff[i] += a.outOff[i-1]
	}
	a.inEdge = make([]int32, nE)
	a.outEdge = make([]int32, nE)
	inFill := append([]int32(nil), a.inOff[:n]...)
	outFill := append([]int32(nil), a.outOff[:n]...)
	for ei := 0; ei < nE; ei++ {
		f, t := a.eFrom[ei], a.eTo[ei]
		a.outEdge[outFill[f]] = int32(ei)
		outFill[f]++
		a.inEdge[inFill[t]] = int32(ei)
		inFill[t]++
	}
}

// buildCheckIndex collects, per data input pin, the setup and hold arcs of
// its master pin (in mp.Arcs order) with preresolved capture-clock nodes, so
// the required-time seeds and the hold checks run without any name lookups.
// A data input with a setup arc is a timing endpoint.
func (a *Analyzer) buildCheckIndex() {
	n := a.numNodes()
	a.checkOff = make([]int32, n+1)
	a.checkArc = a.checkArc[:0]
	a.checkClk = a.checkClk[:0]
	for v := 0; v < n; v++ {
		a.checkOff[v] = int32(len(a.checkArc)) //ppalint:ignore i32trunc check arcs (about two per register data pin) are fewer than the edges, which build asserts fit int32
		if a.kind[v] != nodeInput {
			continue
		}
		inst := a.nodeInst[v]
		mp := &a.d.Insts[inst].Master.Pins[a.nodeMP[v]]
		for ai := range mp.Arcs {
			arc := &mp.Arcs[ai]
			if arc.Kind != netlist.ArcSetup && arc.Kind != netlist.ArcHold {
				continue
			}
			a.endp[v] = a.endp[v] || arc.Kind == netlist.ArcSetup
			a.checkArc = append(a.checkArc, arc)
			a.checkClk = append(a.checkClk, a.pinNode[a.instPinStart[inst]+int32(arc.From)])
		}
	}
	a.checkOff[n] = int32(len(a.checkArc)) //ppalint:ignore i32trunc check arcs (about two per register data pin) are fewer than the edges, which build asserts fit int32
}

func (a *Analyzer) initValueArrays() {
	n := a.numNodes()
	a.at = make([]float64, n)
	a.rat = make([]float64, n)
	a.slew = make([]float64, n)
	a.hasAT = make([]bool, n)
	a.hasRAT = make([]bool, n)
	a.worstIn = make([]int32, n)
}

// isLaunchEdge reports whether edge ei is a clk->Q launch arc.
func (a *Analyzer) isLaunchEdge(ei int32) bool {
	arc := a.eArc[ei]
	return arc != nil && arc.Kind == netlist.ArcClkToQ
}

// markSpecialNodes labels clock pins, startpoints and endpoints.
func (a *Analyzer) markSpecialNodes() {
	d := a.d
	// Propagate clock from clock ports through net arcs and buffers/inverters.
	var queue []int32
	for i := 0; i < a.numNodes(); i++ {
		if a.isClk[i] {
			queue = append(queue, int32(i))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
			to := a.eTo[ei]
			if a.isClk[to] {
				continue
			}
			if arc := a.eArc[ei]; arc != nil && arc.Kind != netlist.ArcComb {
				continue // clk->Q is a data launch, not clock propagation
			}
			a.isClk[to] = true
			queue = append(queue, to)
		}
	}
	// Also mark clock input pins of sequential cells.
	for i := 0; i < a.numNodes(); i++ {
		if inst := a.nodeInst[i]; inst >= 0 {
			if d.Insts[inst].Master.Pins[a.nodeMP[i]].Clock {
				a.isClk[i] = true
			}
		}
	}
	// Startpoints and endpoints.
	for i := 0; i < a.numNodes(); i++ {
		switch a.kind[i] {
		case nodePortIn:
			// An input port is a clock node only as a clock root: no
			// arc ends at a port that drives a net.
			if !a.isClk[i] {
				a.startp[i] = true
			}
		case nodePortOut:
			a.endp[i] = true
		case nodeOutput:
			// Output fed by a clk->Q arc is a launch point.
			for _, ei := range a.inEdge[a.inOff[i]:a.inOff[i+1]] {
				if a.isLaunchEdge(ei) {
					a.startp[i] = true
				}
			}
		}
	}
}

// ClockArrival is one CTS-computed clock arrival: the insertion delay T at
// clock pin Pin.
type ClockArrival struct {
	Pin netlist.PinRef
	T   float64
}

// SetClockArrivalList installs per-pin clock arrival times (from CTS) on the
// clock pins of sequential cells. Passing an empty list restores the ideal
// clock.
func (a *Analyzer) SetClockArrivalList(list []ClockArrival) {
	if len(list) == 0 {
		a.clockAt = nil
		a.timeDone = false
		return
	}
	a.clockAt = make([]float64, a.numNodes())
	for _, ca := range list {
		if n, ok := a.nodeOfPin(ca.Pin); ok {
			a.clockAt[n] = ca.T
		}
	}
	a.timeDone = false
}

// clockAtNode returns the clock arrival at a node (0 under the ideal clock
// or for unresolved nodes).
func (a *Analyzer) clockAtNode(n int32) float64 {
	if a.clockAt == nil || n < 0 {
		return 0
	}
	return a.clockAt[n]
}

// arrivalAt returns the arrival time at a pin; ok is false when unreached.
func (a *Analyzer) arrivalAt(p netlist.PinRef) (float64, bool) {
	a.run()
	n, found := a.nodeOfPin(p)
	if !found {
		return 0, false
	}
	return a.at[n], a.hasAT[n]
}

// Summary is the WNS/TNS report over all endpoints.
type Summary struct {
	WNS       float64 // worst negative slack (0 if all positive)
	TNS       float64 // total negative slack (sum of negative endpoint slacks)
	Endpoints int
	Failing   int
}

// Timing returns the design-wide WNS/TNS summary.
func (a *Analyzer) Timing() Summary {
	a.run()
	var s Summary
	for i := 0; i < a.numNodes(); i++ {
		if !a.endp[i] || !a.hasAT[i] || !a.hasRAT[i] {
			continue
		}
		s.Endpoints++
		slack := a.rat[i] - a.at[i]
		if slack < 0 {
			s.Failing++
			s.TNS += slack
			if slack < s.WNS {
				s.WNS = slack
			}
		}
	}
	return s
}

// NetLoad returns the total load capacitance (pins + wire) of a net.
func (a *Analyzer) NetLoad(netID int) float64 { return a.netLoad[netID] }

// NetSlackInto fills dst (grown if needed; nil allocates) with, for each net,
// the worst slack over the pins of the net (+Inf for unconstrained nets) and
// returns it. The timing-driven placer reweights nets from it; its
// checkpoints call this repeatedly at full-design scale, so the buffer is
// caller-owned and the fill allocates nothing once dst has capacity for
// len(Nets).
func (a *Analyzer) NetSlackInto(dst []float64) []float64 {
	a.run()
	n := len(a.d.Nets)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Inf(1)
	}
	for i := 0; i < a.numNodes(); i++ {
		netID := a.net[i]
		if netID < 0 || !a.hasAT[i] || !a.hasRAT[i] {
			continue
		}
		slack := a.rat[i] - a.at[i]
		if slack < dst[netID] {
			dst[netID] = slack
		}
	}
	return dst
}

// Path is one extracted timing path.
type Path struct {
	Slack    float64
	Pins     []netlist.PinRef
	Nets     []int // nets traversed, aligned with hops between pins
	Endpoint netlist.PinRef
}

// TopPaths enumerates up to maxPaths timing paths: the worst path per
// endpoint, sorted by ascending slack. This mirrors OpenSTA findPathEnds
// with endpoint_count=1, unique_pins=true, sort_by_slack=true.
func (a *Analyzer) TopPaths(maxPaths int) []Path {
	a.run()
	type endSlack struct {
		node  int32
		slack float64
	}
	ends := make([]endSlack, 0, 256)
	for i := 0; i < a.numNodes(); i++ {
		if a.endp[i] && a.hasAT[i] && a.hasRAT[i] {
			ends = append(ends, endSlack{int32(i), a.rat[i] - a.at[i]})
		}
	}
	sort.Slice(ends, func(i, j int) bool {
		if ends[i].slack != ends[j].slack {
			return ends[i].slack < ends[j].slack
		}
		return ends[i].node < ends[j].node
	})
	if maxPaths > 0 && len(ends) > maxPaths {
		ends = ends[:maxPaths]
	}
	paths := make([]Path, 0, len(ends))
	for _, es := range ends {
		p := Path{Slack: es.slack, Endpoint: a.pinOf(es.node)}
		// Backtrack via worst-arrival predecessor edges.
		cur := es.node
		for cur >= 0 {
			p.Pins = append(p.Pins, a.pinOf(cur))
			ei := a.worstIn[cur]
			if ei < 0 {
				break
			}
			arc := a.eArc[ei]
			if arc == nil {
				p.Nets = append(p.Nets, int(a.net[cur]))
			}
			if arc != nil && arc.Kind == netlist.ArcClkToQ {
				// Launch point reached.
				p.Pins = append(p.Pins, a.pinOf(a.eFrom[ei]))
				break
			}
			cur = a.eFrom[ei]
		}
		// Reverse to startpoint-first order.
		for l, r := 0, len(p.Pins)-1; l < r; l, r = l+1, r-1 {
			p.Pins[l], p.Pins[r] = p.Pins[r], p.Pins[l]
		}
		for l, r := 0, len(p.Nets)-1; l < r; l, r = l+1, r-1 {
			p.Nets[l], p.Nets[r] = p.Nets[r], p.Nets[l]
		}
		paths = append(paths, p)
	}
	return paths
}
