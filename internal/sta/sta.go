// Package sta is a graph-based static timing analyzer, the reproduction's
// stand-in for OpenSTA. It computes arrival/required times and slacks over a
// pin-level timing graph, enumerates the worst path per endpoint (the
// equivalent of OpenSTA's findPathEnds with endpoint_count=1), and propagates
// vectorless switching activity (the equivalent of findClkedActivity).
//
// The timing graph is built from the netlist.Compact CSR view and stored as
// flat struct-of-arrays: int32 node/edge identifiers, per-node float64
// arrival/required/slew arrays, and int32 in/out adjacency CSR. Pin lookup
// uses a dense (instance, master-pin-index) -> node table instead of a
// map[PinID]int, and CTS clock arrivals live in a dense per-node array, so a
// million-cell graph builds and propagates without per-pin hashing.
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
	ClockPorts    []string // input ports that are clock roots
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

// PinID identifies a timing graph node: an instance pin, or a port when
// Inst < 0.
type PinID struct {
	Inst int
	Pin  string
}

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
	nodeDX   []float64 // pin offset from instance origin (0 for ports)
	nodeDY   []float64

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

	// Setup-check CSR per endpoint node: the setup arcs of the node's master
	// pin (in mp.Arcs order) with their capture-clock nodes preresolved.
	setupOff []int32
	setupArc []*netlist.TimingArc
	setupClk []int32

	topo      []int32  // data order: every non-launch edge goes forward
	loopEdges int      // edges removed at build to open timing loops
	sched     schedule // level schedule and per-node pull orders

	netLoad   []float64 // total load capacitance per net
	netArcOff []int32   // net -> its net arcs are edge ids [netArcOff[n], netArcOff[n+1])

	clockAt []float64 // per-node clock arrival (from CTS); nil = ideal clock

	activity []float64 // per-node switching activity (toggles/cycle)
	actDone  bool
	timeDone bool

	// Position gather scratch for the geometry refresh.
	gInstX, gInstY []float64
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

// pinIDOf reconstructs the public PinID of a node.
func (a *Analyzer) pinIDOf(v int) PinID {
	id := a.nodeInst[v]
	if id < 0 {
		return PinID{Inst: -1, Pin: a.d.Ports[-1-id].Name}
	}
	return PinID{Inst: int(id), Pin: a.d.Insts[id].Master.Pins[a.nodeMP[v]].Name}
}

// nodeOfPin resolves a PinID to its node index (false when the pin has no
// node). Ports resolve through the design's port index; instance pins through
// the master pin index and the dense pin-node table.
func (a *Analyzer) nodeOfPin(id PinID) (int, bool) {
	if id.Inst < 0 {
		pi := a.d.PortIndex(id.Pin)
		if pi < 0 || pi >= len(a.d.Ports) {
			return 0, false
		}
		return pi, true // ports occupy nodes [0, len(Ports)) in order
	}
	if id.Inst >= len(a.d.Insts) {
		return 0, false
	}
	mpIdx := a.d.Insts[id.Inst].Master.PinIndex(id.Pin)
	if mpIdx < 0 {
		return 0, false
	}
	n := a.pinNode[a.instPinStart[id.Inst]+int32(mpIdx)]
	if n < 0 {
		return 0, false
	}
	return int(n), true
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
	a.nodeDX = append(a.nodeDX, 0)
	a.nodeDY = append(a.nodeDY, 0)
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
	clockPorts := make(map[string]bool)
	for _, p := range a.cons.ClockPorts {
		clockPorts[p] = true
	}

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
		if clockPorts[p.Name] {
			a.isClk[n] = true
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
			if mpIdx < 0 {
				continue
			}
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
			a.nodeDX[n] = c.PinDX[k]
			a.nodeDY[n] = c.PinDY[k]
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
				fi := inst.Master.PinIndex(arc.From)
				if fi < 0 {
					continue
				}
				fromNode := a.pinNode[base+int32(fi)]
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
	level, acyclic := a.levelize()
	if !acyclic {
		a.cutLoops()
		a.buildAdjacency()
		level, _ = a.levelize()
	}
	a.buildSetupIndex()
	a.initValueArrays()
	a.markSpecialNodes(clockPorts)
	a.topoSort()
	a.buildSchedule(level)
	a.refreshAllNets()
}

// sinkOfSlot resolves pin slot k of the net driven from slot kd to the node
// the driver's net arc ends at. ok is false for the driver itself (every pin
// equal to it by value), pins with no master pin, outputs, and ports that are
// not outputs. Both the graph build and the load refresh walk a net through
// here, so they agree on what its sinks are.
func (a *Analyzer) sinkOfSlot(c *netlist.Compact, kd, k int32) (int32, bool) {
	id, drvID := c.PinInst[k], c.PinInst[kd]
	if id == drvID && (drvID < 0 || c.PinMP[k] == c.PinMP[kd]) {
		return 0, false
	}
	if id == netlist.CompactNoPort || id >= 0 && c.PinMP[k] < 0 {
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

// gatherPositions snapshots instance origins into contiguous scratch; port
// coordinates are read directly (few ports).
func (a *Analyzer) gatherPositions() {
	d := a.d
	if len(a.gInstX) != len(d.Insts) {
		a.gInstX = make([]float64, len(d.Insts))
		a.gInstY = make([]float64, len(d.Insts))
	}
	for i, inst := range d.Insts {
		a.gInstX[i] = inst.X
		a.gInstY[i] = inst.Y
	}
}

// posOfSlot resolves a compact pin slot's position against the gathered
// instance origins. The arithmetic (origin + precomputed offset) matches
// Design.PinPos bit for bit.
func (a *Analyzer) posOfSlot(c *netlist.Compact, k int32) (float64, float64) {
	id := c.PinInst[k]
	if id >= 0 {
		return a.gInstX[id] + c.PinDX[k], a.gInstY[id] + c.PinDY[k]
	}
	if id == netlist.CompactNoPort {
		return 0, 0
	}
	p := a.d.Ports[-1-id]
	return p.X, p.Y
}

// netHPWLGathered computes a net's HPWL over the gathered positions with the
// same comparison structure as Design.NetHPWL, so the result is bit-identical.
func (a *Analyzer) netHPWLGathered(c *netlist.Compact, ni int) float64 {
	lo, hi := c.NetStart[ni], c.NetStart[ni+1]
	if hi-lo < 2 {
		return 0
	}
	minX, minY := 1e308, 1e308
	maxX, maxY := -1e308, -1e308
	for k := lo; k < hi; k++ {
		x, y := a.posOfSlot(c, k)
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	return (maxX - minX) + (maxY - minY)
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

// buildSetupIndex collects, per endpoint data pin, the setup arcs of its
// master pin (in mp.Arcs order) with preresolved capture-clock nodes, so the
// required-time seeds run without any name lookups.
func (a *Analyzer) buildSetupIndex() {
	n := a.numNodes()
	a.setupOff = make([]int32, n+1)
	a.setupArc = a.setupArc[:0]
	a.setupClk = a.setupClk[:0]
	for v := 0; v < n; v++ {
		a.setupOff[v] = int32(len(a.setupArc)) //ppalint:ignore i32trunc setup arcs (about one per register data pin) are fewer than the edges, which build asserts fit int32
		if a.kind[v] != nodeInput {
			continue
		}
		inst := a.nodeInst[v]
		m := a.d.Insts[inst].Master
		mp := &m.Pins[a.nodeMP[v]]
		for ai := range mp.Arcs {
			arc := &mp.Arcs[ai]
			if arc.Kind != netlist.ArcSetup {
				continue
			}
			clkNode := int32(-1)
			if fi := m.PinIndex(arc.From); fi >= 0 {
				clkNode = a.pinNode[a.instPinStart[inst]+int32(fi)]
			}
			a.setupArc = append(a.setupArc, arc)
			a.setupClk = append(a.setupClk, clkNode)
		}
	}
	a.setupOff[n] = int32(len(a.setupArc)) //ppalint:ignore i32trunc setup arcs (about one per register data pin) are fewer than the edges, which build asserts fit int32
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
func (a *Analyzer) markSpecialNodes(clockPorts map[string]bool) {
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
			if !clockPorts[d.Ports[-1-a.nodeInst[i]].Name] {
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
		case nodeInput:
			// Data input with a setup arc is an endpoint.
			if a.setupOff[i+1] > a.setupOff[i] {
				a.endp[i] = true
			}
		}
	}
}

// topoSort orders nodes so every data edge goes forward: Kahn's algorithm in
// node-id and edge-id order over the edges that are not clk->Q launch arcs. A
// launch starts a new timing frame, so a Q output is a source here instead of
// ranking after its clock pin. The order is complete because build has
// already opened every loop (cutLoops). Hold and activity propagation walk
// it, and it fixes the order setup candidates are applied in (buildSchedule).
func (a *Analyzer) topoSort() {
	n := a.numNodes()
	indeg := make([]int32, n)
	for ei, t := range a.eTo {
		if !a.isLaunchEdge(int32(ei)) {
			indeg[t]++
		}
	}
	order := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
			if a.isLaunchEdge(ei) {
				continue
			}
			t := a.eTo[ei]
			indeg[t]--
			if indeg[t] == 0 {
				order = append(order, t)
			}
		}
	}
	a.topo = order
}

// ClockArrival is one CTS-computed clock arrival: the insertion delay T at
// clock pin Pin of instance Inst.
type ClockArrival struct {
	Inst int
	Pin  string
	T    float64
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
		if n, ok := a.nodeOfPin(PinID{Inst: ca.Inst, Pin: ca.Pin}); ok {
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

// clockAtInst returns the clock arrival at the named pin of an instance
// (used by the cold-path hold checks, which resolve arc.From by name).
func (a *Analyzer) clockAtInst(inst int32, clkPin string) float64 {
	if a.clockAt == nil {
		return 0
	}
	if n, ok := a.nodeOfPin(PinID{Inst: int(inst), Pin: clkPin}); ok {
		return a.clockAt[n]
	}
	return 0
}

// arrivalAt returns the arrival time at a pin; ok is false when unreached.
func (a *Analyzer) arrivalAt(id PinID) (float64, bool) {
	a.run()
	n, found := a.nodeOfPin(id)
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
// returns it. This is the per-net timing criticality the clustering consumes.
// The placer's timing-driven checkpoints call this repeatedly at full-design
// scale, so the buffer is caller-owned and the fill allocates nothing once
// dst has capacity for len(Nets).
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
	Pins     []PinID
	Nets     []int // nets traversed, aligned with hops between pins
	Endpoint PinID
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
		p := Path{Slack: es.slack, Endpoint: a.pinIDOf(int(es.node))}
		// Backtrack via worst-arrival predecessor edges.
		cur := es.node
		for cur >= 0 {
			p.Pins = append(p.Pins, a.pinIDOf(int(cur)))
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
				p.Pins = append(p.Pins, a.pinIDOf(int(a.eFrom[ei])))
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
