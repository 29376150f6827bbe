// Setup arrival/required propagation: one levelized engine.
//
// Every node has a level, 1 + the highest level over ALL its in-edges (clk->Q
// launch arcs included). The forward pass runs the levels in ascending order
// and each node pulls its arrival from its in-edges; the backward pass runs
// them in descending order and each node pulls its required time from its
// out-edges. When a level runs, every value a node reads — its sources'
// at/slew going forward, its sinks' rat going backward, and the clock-pin
// slew a launch arc samples — is final, and nodes within a level write only
// their own fields.
//
// Bit-exactness: a node's candidates are applied with strict comparisons in
// one fixed order, the one a relaxation pushed along topo would produce (and
// the one the test oracle, refAnalyzer, does produce): forward, by (topo rank
// of the source, edge id) with launch arcs last; backward, by (descending
// topo rank of the sink, edge id).
//
// Levels need an acyclic edge set. Netlists with combinational loops (or a
// register clocked through its own output) do not have one, so build opens
// each loop by removing its closing edge (cutLoops) before anything else
// sees the graph, and WriteReport says how many were removed — OpenSTA's
// convention: disable an arc, report the loop.
package sta

import (
	"math"

	"ppaclust/internal/netlist"
)

// schedule is the level schedule and the per-node candidate orders.
type schedule struct {
	levelNodes []int32 // nodes by ascending level, ascending id within one

	// pullIn permutes each node's inEdge run (same inOff offsets) into the
	// order arrival candidates are applied in, launch arcs last.
	pullIn []int32

	pullOutOff []int32 // node -> offset into pullOut
	pullOut    []int32 // non-launch out-edge ids in required-candidate order
}

// levelize computes level(v) = 1 + max level over all in-edges by Kahn's
// algorithm. ok is false when the edge set is cyclic (some node never ran
// out of unvisited in-edges).
func (a *Analyzer) levelize() (level []int32, ok bool) {
	n := a.numNodes()
	indeg := make([]int32, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] = a.inOff[v+1] - a.inOff[v]; indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	level = make([]int32, n)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
			t := a.eTo[ei]
			if l := level[v] + 1; l > level[t] {
				level[t] = l
			}
			if indeg[t]--; indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	return level, len(queue) == n
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

// buildSchedule buckets nodes by level and writes down, per node, the order
// its candidates are applied in. No sorting is needed: the orders are what a
// push along topo produces, so walking topo and dropping each edge into its
// far end's next free slot yields them directly.
func (a *Analyzer) buildSchedule(level []int32) {
	n := a.numNodes()
	sc := &a.sched
	maxLevel := int32(0)
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	lfill := make([]int, maxLevel+2) // level -> next free slot of levelNodes
	for _, l := range level {
		lfill[l+1]++
	}
	for i := 1; i < len(lfill); i++ {
		lfill[i] += lfill[i-1]
	}
	sc.levelNodes = make([]int32, n)
	for v := 0; v < n; v++ {
		sc.levelNodes[lfill[level[v]]] = int32(v)
		lfill[level[v]]++
	}

	// Forward: sources in topo order push their non-launch out-edges in
	// edge-id order; a node's launch arcs fire at its own visit, after every
	// source has pushed, in in-list order.
	sc.pullIn = make([]int32, len(a.eFrom))
	fill := append([]int32(nil), a.inOff[:n]...)
	for _, v := range a.topo {
		for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
			if !a.isLaunchEdge(ei) {
				t := a.eTo[ei]
				sc.pullIn[fill[t]] = ei
				fill[t]++
			}
		}
	}
	for v := 0; v < n; v++ {
		for _, ei := range a.inEdge[a.inOff[v]:a.inOff[v+1]] {
			if a.isLaunchEdge(ei) {
				sc.pullIn[fill[v]] = ei
				fill[v]++
			}
		}
	}

	// Backward: sinks in reverse topo order push their non-launch in-edges
	// in edge-id order.
	sc.pullOutOff = make([]int32, n+1)
	for ei, f := range a.eFrom {
		if !a.isLaunchEdge(int32(ei)) {
			sc.pullOutOff[f+1]++
		}
	}
	for i := 1; i <= n; i++ {
		sc.pullOutOff[i] += sc.pullOutOff[i-1]
	}
	sc.pullOut = make([]int32, sc.pullOutOff[n])
	copy(fill, sc.pullOutOff[:n])
	for i := len(a.topo) - 1; i >= 0; i-- {
		v := a.topo[i]
		for _, ei := range a.inEdge[a.inOff[v]:a.inOff[v+1]] {
			if !a.isLaunchEdge(ei) {
				u := a.eFrom[ei]
				sc.pullOut[fill[u]] = ei
				fill[u]++
			}
		}
	}
}

// run performs arrival/required propagation if stale.
func (a *Analyzer) run() {
	if a.timeDone {
		return
	}
	sc := &a.sched
	for v := int32(0); v < int32(a.numNodes()); v++ {
		a.seedArrival(v)
	}
	for _, v := range sc.levelNodes {
		a.pullArrival(v)
	}
	for v := int32(0); v < int32(a.numNodes()); v++ {
		a.seedRequired(v)
	}
	for i := len(sc.levelNodes) - 1; i >= 0; i-- {
		a.pullRequired(sc.levelNodes[i])
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

// pullArrival applies every in-candidate of v, in schedule order.
func (a *Analyzer) pullArrival(v int32) {
	for _, ei := range a.sched.pullIn[a.inOff[v]:a.inOff[v+1]] {
		arc := a.eArc[ei]
		if arc != nil && arc.Kind == netlist.ArcClkToQ {
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
			continue
		}
		from := a.eFrom[ei]
		if !a.hasAT[from] {
			continue
		}
		var at, slew float64
		if arc != nil {
			load := a.loadOf(v)
			at = a.at[from] + arc.Delay.Lookup(a.slew[from], load)
			slew = arc.Slew.Lookup(a.slew[from], load)
		} else {
			// Net arc: Elmore-style wire delay to this sink.
			sinkCap := a.nodeCap[v]
			wd := WireResPerMicron * a.eWire[ei] * (WireCapPerMicron*a.eWire[ei]/2 + sinkCap)
			at = a.at[from] + wd
			slew = a.slew[from] + 0.2*wd
		}
		if at > a.at[v] {
			a.at[v] = at
			a.hasAT[v] = true
			a.worstIn[v] = ei
			a.slew[v] = slew
		}
	}
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

// pullRequired applies every out-candidate of u, in schedule order.
func (a *Analyzer) pullRequired(u int32) {
	for _, ei := range a.sched.pullOut[a.sched.pullOutOff[u]:a.sched.pullOutOff[u+1]] {
		to := a.eTo[ei]
		if !a.hasRAT[to] {
			continue
		}
		arc := a.eArc[ei]
		var rat float64
		if arc != nil {
			load := a.loadOf(to)
			rat = a.rat[to] - arc.Delay.Lookup(a.slew[u], load)
		} else {
			sinkCap := a.nodeCap[to]
			wd := WireResPerMicron * a.eWire[ei] * (WireCapPerMicron*a.eWire[ei]/2 + sinkCap)
			rat = a.rat[to] - wd
		}
		if rat < a.rat[u] {
			a.rat[u] = rat
			a.hasRAT[u] = true
		}
	}
}
