// Incremental timing update: dirty-cone repropagation.
//
// The analyzer tracks a set of dirty nets (marked via the Invalidate* calls
// after cells move or the parasitics mode flips). Update refreshes the wire
// geometry of exactly those nets and repropagates arrivals through the dirty
// fanout cone and requireds through the dirty fanin cone, instead of
// re-running the full passes.
//
// The repropagation uses the kernels of the full propagation (propagate.go):
// each recomputed node is reset to its seed state and pulls its candidates in
// schedule order, so it lands on the same bits as a full pass would. Nodes
// outside the cone keep their values; by induction over the levels those are
// bit-identical too, because every input they would re-read is unchanged
// bitwise. A full-graph dirty set, or an analyzer whose timing was never
// propagated, reduces to the full propagation in Run.
//
// Worklist invariants (see also DESIGN.md §9):
//   - Forward seeds of a dirty net: the driver node (its in-arcs read the
//     net's load, which changed) and every net-arc sink (the arc's wire
//     length changed). A recomputed node whose (at, slew, hasAT) changed
//     bitwise enqueues all out-edge targets — launch arcs included, since a
//     launch samples its clock pin's slew.
//   - Backward seeds: every node whose slew changed in the forward pass (its
//     own required pull and setup-endpoint seed read it), plus each dirty
//     net's driver (out net-arc wire lengths changed) and the sources of
//     cell arcs into that driver (their arc delay reads the driver's net
//     load). A node whose (rat, hasRAT) changed enqueues its non-launch
//     in-edge sources.
//   - Levels strictly increase along every edge, so processing forward
//     buckets in ascending and backward buckets in descending level order
//     never revisits a bucket.
package sta

import (
	"math"

	"ppaclust/internal/netlist"
)

// incState holds the dirty-set bookkeeping and the reusable worklist
// buffers of the incremental engine.
type incState struct {
	netDirty  []bool
	dirtyNets []int32
	dirtyAll  bool

	pend    []bool    // node queued in the current pass
	buckets [][]int32 // per-level worklists, reused across Updates
	bwdSeed []int32

	lastNodes int // nodes repropagated by the last Update, -1 after a full one
}

// InvalidateNets marks nets whose pin positions (or connectivity-independent
// parasitics) changed; the next Update refreshes their geometry and
// repropagates the affected cones.
func (a *Analyzer) InvalidateNets(nets ...int) {
	for _, n := range nets {
		if n < 0 || n >= len(a.inc.netDirty) || a.inc.netDirty[n] {
			continue
		}
		a.inc.netDirty[n] = true
		a.inc.dirtyNets = append(a.inc.dirtyNets, int32(n))
	}
}

// InvalidateInst marks every net connected to the instance dirty; call it
// after moving a cell.
func (a *Analyzer) InvalidateInst(id int) {
	c := a.d.Compact()
	for _, n := range c.InstNets[c.InstStart[id]:c.InstStart[id+1]] {
		if a.inc.netDirty[n] {
			continue
		}
		a.inc.netDirty[n] = true
		a.inc.dirtyNets = append(a.inc.dirtyNets, n)
	}
}

// InvalidatePin marks the net of one pin dirty.
func (a *Analyzer) InvalidatePin(id PinID) {
	if n, ok := a.nodeOfPin(id); ok {
		if netID := a.net[n]; netID >= 0 {
			a.InvalidateNets(int(netID))
		}
	}
}

// InvalidateAll marks the whole graph dirty; the next Update reduces to the
// full refresh + propagation.
func (a *Analyzer) InvalidateAll() {
	a.inc.dirtyAll = true
}

// SetZeroWire switches between zero-wire (pre-placement, Algorithm 1 lines
// 4-5) and placed-parasitics timing. The geometry source changes for every
// net, so the whole graph is invalidated; call Update to apply.
func (a *Analyzer) SetZeroWire(zw bool) {
	a.cons.ZeroWire = zw
	a.InvalidateAll()
}

// LastUpdateNodes reports how many nodes the last Update repropagated
// incrementally, or -1 when it was a full refresh (or there was none yet).
// Diagnostic, used by tests to prove the dirty-cone path engaged.
func (a *Analyzer) LastUpdateNodes() int { return a.inc.lastNodes }

// Update applies pending invalidations: it refreshes wire loads/lengths of
// the dirty nets from current pin positions and repropagates the dirty
// cones. Calling Update with no recorded invalidations keeps the legacy
// semantics of refreshing everything. A full-graph dirty set, or timing
// that was never propagated, reduces to the full propagation in Run.
func (a *Analyzer) Update() {
	if a.inc.dirtyAll || len(a.inc.dirtyNets) == 0 || !a.timeDone {
		a.refreshAllNets()
		a.clearDirty()
		a.inc.lastNodes = -1
		a.timeDone = false
		a.actDone = false
		return
	}
	a.updateIncremental()
}

func (a *Analyzer) clearDirty() {
	for _, n := range a.inc.dirtyNets {
		a.inc.netDirty[n] = false
	}
	a.inc.dirtyNets = a.inc.dirtyNets[:0]
	a.inc.dirtyAll = false
}

// refreshAllNets refreshes every net's geometry over freshly gathered
// positions — the full-update path, flat over the compact CSR.
func (a *Analyzer) refreshAllNets() {
	a.gatherPositions()
	c := a.d.Compact()
	for ni := range a.d.Nets {
		a.refreshNet(c, ni)
	}
}

// refreshNet recomputes one net's load and per-sink wire lengths from the
// gathered pin positions: pin caps in pin order, plus the wire cap of the
// net's HPWL unless parasitics are off. Callers must gatherPositions first.
func (a *Analyzer) refreshNet(c *netlist.Compact, ni int) {
	kd := c.NetDrv[ni]
	if kd < 0 {
		return
	}
	var load float64
	for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
		if sink, ok := a.sinkOfSlot(c, kd, k); ok {
			load += a.nodeCap[sink]
		}
	}
	lo, hi := a.netArcOff[ni], a.netArcOff[ni+1]
	if a.cons.ZeroWire {
		a.netLoad[ni] = load
		for ei := lo; ei < hi; ei++ {
			a.eWire[ei] = 0
		}
		return
	}
	a.netLoad[ni] = load + WireCapPerMicron*a.netHPWLGathered(c, ni)
	dx, dy := a.posOfSlot(c, kd)
	for ei := lo; ei < hi; ei++ {
		to := a.eTo[ei]
		var sx, sy float64
		if id := a.nodeInst[to]; id >= 0 {
			sx, sy = a.gInstX[id]+a.nodeDX[to], a.gInstY[id]+a.nodeDY[to]
		} else {
			p := a.d.Ports[-1-id]
			sx, sy = p.X, p.Y
		}
		a.eWire[ei] = math.Abs(sx-dx) + math.Abs(sy-dy)
	}
}

func (a *Analyzer) enqueue(v int32) {
	if a.inc.pend[v] {
		return
	}
	a.inc.pend[v] = true
	l := a.sched.level[v]
	a.inc.buckets[l] = append(a.inc.buckets[l], v)
}

// updateIncremental refreshes the dirty nets' geometry and repropagates
// arrivals/requireds through the affected cones only. The caller ensures
// timing is propagated and the dirty set is partial.
func (a *Analyzer) updateIncremental() {
	if a.inc.pend == nil {
		a.inc.pend = make([]bool, a.numNodes())
		a.inc.buckets = make([][]int32, len(a.sched.levelOff)-1)
	}
	a.gatherPositions()
	c := a.d.Compact()
	bwdSeed := a.inc.bwdSeed[:0]

	// Geometry refresh + seeding.
	for _, netID32 := range a.inc.dirtyNets {
		netID := int(netID32)
		a.refreshNet(c, netID)
		if drvNode := a.netDriver[netID]; drvNode >= 0 {
			a.enqueue(drvNode)
			bwdSeed = append(bwdSeed, drvNode)
			for _, ei := range a.inEdge[a.inOff[drvNode]:a.inOff[drvNode+1]] {
				if a.eArc[ei] != nil && !a.isLaunchEdge(ei) {
					bwdSeed = append(bwdSeed, a.eFrom[ei])
				}
			}
		}
		for _, sink := range a.eTo[a.netArcOff[netID]:a.netArcOff[netID+1]] {
			a.enqueue(sink)
		}
	}

	recomputed := 0
	// Forward cone, ascending levels. Changed-node targets always sit on a
	// strictly higher level, so each bucket is complete when reached.
	for li := 0; li < len(a.inc.buckets); li++ {
		bucket := a.inc.buckets[li]
		for _, v := range bucket {
			a.inc.pend[v] = false
			recomputed++
			oldAT, oldSlew := math.Float64bits(a.at[v]), math.Float64bits(a.slew[v])
			oldHas := a.hasAT[v]
			a.seedArrival(v)
			a.pullArrival(v)
			slewChanged := math.Float64bits(a.slew[v]) != oldSlew
			if slewChanged {
				bwdSeed = append(bwdSeed, v)
			}
			if slewChanged || math.Float64bits(a.at[v]) != oldAT || a.hasAT[v] != oldHas {
				for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
					a.enqueue(a.eTo[ei])
				}
			}
		}
		a.inc.buckets[li] = bucket[:0]
	}

	// Backward cone, descending levels.
	for _, v := range bwdSeed {
		a.enqueue(v)
	}
	for li := len(a.inc.buckets) - 1; li >= 0; li-- {
		bucket := a.inc.buckets[li]
		for _, u := range bucket {
			a.inc.pend[u] = false
			recomputed++
			oldRAT, oldHas := math.Float64bits(a.rat[u]), a.hasRAT[u]
			a.seedRequired(u)
			a.pullRequired(u)
			if math.Float64bits(a.rat[u]) != oldRAT || a.hasRAT[u] != oldHas {
				for _, ei := range a.inEdge[a.inOff[u]:a.inOff[u+1]] {
					if !a.isLaunchEdge(ei) {
						a.enqueue(a.eFrom[ei])
					}
				}
			}
		}
		a.inc.buckets[li] = bucket[:0]
	}

	a.inc.bwdSeed = bwdSeed[:0]
	a.inc.lastNodes = recomputed
	a.clearDirty()
	// Activity depends only on topology and constraints, not geometry, so it
	// stays valid across incremental updates.
}
