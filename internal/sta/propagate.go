// Setup arrival/required propagation: two pushes along one topological order.
//
// topo is Kahn's algorithm over every arc, clk->Q launch arcs included, in
// node-id and edge-id order, so a register's CK pin comes before its Q. The
// forward pass walks topo: each node first applies its own launch candidates,
// which read the slew of a CK pin whose fan-in has already pushed and is
// final, then, if reached, pushes its arrival along its data arcs. The
// backward pass walks topo in reverse: each reached node pushes its required
// time to the near end of each data arc.
//
// Every candidate is applied with a strict comparison, so among equal values
// the first one applied wins. A node's data-arc candidates come in order of
// (topo rank of the source, edge id) and its launch candidates after them;
// worstIn, the in-edge TopPaths backtracks through, is the first of the
// worst. Required candidates come in order of (descending topo rank of the
// sink, edge id).
//
// A topological order needs an acyclic edge set. Netlists with combinational
// loops (or a register clocked through its own output) do not have one, so
// build opens each loop by removing its closing edge (cutLoops) before
// anything else sees the graph, and WriteReport says how many were removed —
// OpenSTA's convention: disable an arc, report the loop.
package sta

import (
	"math"

	"ppaclust/internal/netlist"
)

// topoSort orders the nodes by Kahn's algorithm over every edge, in node-id
// and edge-id order, and reports whether the order is complete: false when
// the edge set is cyclic (some node never ran out of unvisited in-edges).
func (a *Analyzer) topoSort() bool {
	n := a.numNodes()
	indeg := make([]int32, n)
	order := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] = a.inOff[v+1] - a.inOff[v]; indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
			t := a.eTo[ei]
			if indeg[t]--; indeg[t] == 0 {
				order = append(order, t)
			}
		}
	}
	a.topo = order
	return len(order) == n
}

// cutLoops makes the edge set acyclic by removing the back edges of a
// depth-first search that starts from nodes in id order and follows out-edges
// in edge-id order: each back edge closes a loop, and without them no loop is
// left. The choice depends on node and edge ids only, so it is the same on
// every build of a design. Edge order is preserved; callers rebuild the
// adjacency.
func (a *Analyzer) cutLoops() {
	n := a.numNodes()
	const (
		unseen = iota
		onPath
		done
	)
	state := make([]uint8, n)
	next := append([]int32(nil), a.outOff[:n]...) // per-node cursor into outEdge
	cut := make([]bool, len(a.eFrom))
	var path []int32
	for r := 0; r < n; r++ {
		if state[r] != unseen {
			continue
		}
		state[r] = onPath
		path = append(path[:0], int32(r))
		for len(path) > 0 {
			v := path[len(path)-1]
			if next[v] == a.outOff[v+1] {
				state[v] = done
				path = path[:len(path)-1]
				continue
			}
			ei := a.outEdge[next[v]]
			next[v]++
			switch t := a.eTo[ei]; state[t] {
			case unseen:
				state[t] = onPath
				path = append(path, t)
			case onPath:
				cut[ei] = true
			}
		}
	}

	kept := make([]int32, len(cut)+1) // edge id -> id after the cut
	k := int32(0)
	for ei, c := range cut {
		kept[ei] = k
		if c {
			a.loopEdges++
			continue
		}
		a.eFrom[k], a.eTo[k], a.eArc[k] = a.eFrom[ei], a.eTo[ei], a.eArc[ei]
		k++
	}
	kept[len(cut)] = k
	// eWire is still all zero (refreshAllNets has not run), so it only shrinks.
	a.eFrom, a.eTo, a.eArc, a.eWire = a.eFrom[:k], a.eTo[:k], a.eArc[:k], a.eWire[:k]
	for i, off := range a.netArcOff {
		a.netArcOff[i] = kept[off]
	}
}

// run performs arrival/required propagation if stale.
func (a *Analyzer) run() {
	if a.timeDone {
		return
	}
	for v := int32(0); v < int32(a.numNodes()); v++ {
		a.seedArrival(v)
	}
	for _, v := range a.topo {
		a.pushArrival(v)
	}
	for v := int32(0); v < int32(a.numNodes()); v++ {
		a.seedRequired(v)
	}
	for i := len(a.topo) - 1; i >= 0; i-- {
		a.pushRequired(a.topo[i])
	}
	a.timeDone = true
}

// seedArrival resets node v to its state before any candidate is applied:
// unreached with the input slew, or the start time of an input port.
func (a *Analyzer) seedArrival(v int32) {
	a.at[v] = math.Inf(-1)
	a.hasAT[v] = false
	a.worstIn[v] = -1
	a.slew[v] = a.cons.InputSlew
	if a.kind[v] == nodePortIn {
		if a.isClk[v] {
			a.at[v] = 0
		} else {
			a.at[v] = a.cons.InputDelay
		}
		a.hasAT[v] = true
	}
}

// pushArrival applies v's launch candidates and, if v is reached, offers
// its arrival to the far end of each of its data arcs.
func (a *Analyzer) pushArrival(v int32) {
	if a.startp[v] { // only a launch point has a launch arc in
		for _, ei := range a.inEdge[a.inOff[v]:a.inOff[v+1]] {
			arc := a.eArc[ei]
			if arc == nil || arc.Kind != netlist.ArcClkToQ {
				continue
			}
			// Launch: arrival = clock arrival + clk->Q delay.
			load := a.loadOf(v)
			clkAt := a.clockAtNode(a.eFrom[ei])
			slewIn := a.slew[a.eFrom[ei]]
			at := clkAt + arc.Delay.Lookup(slewIn, load)
			if at > a.at[v] {
				a.at[v] = at
				a.hasAT[v] = true
				a.worstIn[v] = ei
				a.slew[v] = arc.Slew.Lookup(slewIn, load)
			}
		}
	}
	if !a.hasAT[v] {
		return
	}
	for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
		arc := a.eArc[ei]
		if arc != nil && arc.Kind == netlist.ArcClkToQ {
			continue
		}
		to := a.eTo[ei]
		var at, slew float64
		if arc != nil {
			load := a.loadOf(to)
			at = a.at[v] + arc.Delay.Lookup(a.slew[v], load)
			slew = arc.Slew.Lookup(a.slew[v], load)
		} else {
			wd := a.wireDelay(ei)
			at = a.at[v] + wd
			slew = a.slew[v] + 0.2*wd
		}
		if at > a.at[to] {
			a.at[to] = at
			a.hasAT[to] = true
			a.worstIn[to] = ei
			a.slew[to] = slew
		}
	}
}

// wireDelay is the Elmore-style delay of net arc ei to its sink.
func (a *Analyzer) wireDelay(ei int32) float64 {
	w := a.eWire[ei]
	return WireResPerMicron * w * (WireCapPerMicron*w/2 + a.nodeCap[a.eTo[ei]])
}

func (a *Analyzer) loadOf(outNode int32) float64 {
	netID := a.net[outNode]
	if netID < 0 {
		return 0
	}
	return a.netLoad[netID]
}

// seedRequired resets node v to unconstrained and, at an endpoint, applies
// its required-time seed: output ports get T minus the output delay; register
// data pins get the worst setup check over their preresolved setup arcs.
func (a *Analyzer) seedRequired(v int32) {
	a.rat[v] = math.Inf(1)
	a.hasRAT[v] = false
	if !a.endp[v] {
		return
	}
	T := a.cons.ClockPeriod
	switch a.kind[v] {
	case nodePortOut:
		a.rat[v] = T - a.cons.OutputDelay
		a.hasRAT[v] = true
	case nodeInput:
		for s := a.checkOff[v]; s < a.checkOff[v+1]; s++ {
			arc := a.checkArc[s]
			if arc.Kind != netlist.ArcSetup {
				continue
			}
			setup := arc.Delay.Lookup(a.slew[v], 0)
			captureClk := a.clockAtNode(a.checkClk[s])
			rat := T + captureClk - setup
			if rat < a.rat[v] {
				a.rat[v] = rat
				a.hasRAT[v] = true
			}
		}
	}
}

// pushRequired offers v's required time, if it has one, to the near end of
// each of its data arcs.
func (a *Analyzer) pushRequired(v int32) {
	if !a.hasRAT[v] {
		return
	}
	for _, ei := range a.inEdge[a.inOff[v]:a.inOff[v+1]] {
		arc := a.eArc[ei]
		if arc != nil && arc.Kind == netlist.ArcClkToQ {
			continue
		}
		u := a.eFrom[ei]
		var rat float64
		if arc != nil {
			rat = a.rat[v] - arc.Delay.Lookup(a.slew[u], a.loadOf(v))
		} else {
			rat = a.rat[v] - a.wireDelay(ei)
		}
		if rat < a.rat[u] {
			a.rat[u] = rat
			a.hasRAT[u] = true
		}
	}
}
