// Geometry refresh: net loads and wire lengths from current pin positions.
package sta

import (
	"math"

	"ppaclust/internal/netlist"
)

// SetZeroWire switches between zero-wire (pre-placement, Algorithm 1 lines
// 4-5) and placed-parasitics timing; call Update to apply.
func (a *Analyzer) SetZeroWire(zw bool) { a.cons.ZeroWire = zw }

// Update refreshes every net's load and wire lengths from the current pin
// positions and parasitics mode, and discards the propagated timing and
// activity; the next query repropagates. Call it after moving cells.
func (a *Analyzer) Update() {
	a.refreshAllNets()
	a.timeDone = false
	a.actDone = false
}

// LastUpdateNodes always reports -1 (a full refresh). Retained only for
// benchmark/replay.go:266 until the next benchmark-only PR drops
// sta.update_nodes.
func (a *Analyzer) LastUpdateNodes() int { return -1 }

// refreshAllNets refreshes every net's geometry over a fresh position
// snapshot, flat over the compact CSR. A zero-wire refresh reads no
// coordinate, so a zero-wire analyzer can be built while cells move.
func (a *Analyzer) refreshAllNets() {
	if !a.cons.ZeroWire {
		a.pos.Gather(a.d)
	}
	c := a.d.Compact()
	for ni := range a.d.Nets {
		a.refreshNet(c, ni)
	}
}

// refreshNet recomputes one net's load and per-sink wire lengths from the
// position snapshot: pin caps in pin order, plus the wire cap of the net's
// HPWL unless parasitics are off. Callers with parasitics on must gather
// a.pos first.
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
	a.netLoad[ni] = load + WireCapPerMicron*c.NetHPWL(&a.pos, ni)
	dx, dy := c.PinXY(&a.pos, kd)
	for ei := lo; ei < hi; ei++ {
		sx, sy := c.PinXY(&a.pos, a.nodeSlot[a.eTo[ei]])
		a.eWire[ei] = math.Abs(sx-dx) + math.Abs(sy-dy)
	}
}
