package netlist

// WirelenCache maintains per-net bounding boxes and half-perimeter
// wirelengths so a single-cell move costs O(pins of the cell), whatever the
// fan-out of its nets, instead of recomputing every touched net from scratch.
// The one exception is a move that takes a bbox-owning pin inward: the new
// edge may be any other pin, so that net is recomputed exactly in O(pins of
// the net). It is the wirelength oracle of the detailed placer's swap loop
// and is exposed for future incremental passes (timing-driven refinement,
// annealing).
//
// The cache runs on the design's Compact CSR view plus its own Positions
// snapshot and an instance -> pin-slot index, so the move path walks
// contiguous int32/float64 memory with no master-pin map lookups and never
// scans a net to find the moved cell's pins on it.
//
// All cached values are bit-identical (math.Float64bits) to Design.HPWL on
// the same positions: the from-scratch recompute is Compact's own bounding
// box kernel, and the incremental expansion only replaces a bound on a
// strict inequality — the same rule the kernel applies — so a bound never
// changes bits without changing value.
//
// A design's topology is fixed when it is built, so only positions can go
// stale: they change only through MoveCell, and moving a cell any other way
// invalidates the cache; build a new one afterwards.
type WirelenCache struct {
	d                      *Design
	cm                     *Compact
	minX, maxX, minY, maxY []float64
	hp                     []float64

	// Cache-owned positions. MoveCell writes InstX/InstY alongside
	// Instance.X/Y; ports cannot move through this cache, so their
	// coordinates are as rebuild gathered them.
	pos Positions

	// Instance -> pin-slot CSR: instance i's pins are the Compact slots
	// slots[slotStart[i]:slotStart[i+1]], ascending. A net's slots are one
	// contiguous range and InstNets is ascending in net ID, so walking an
	// instance's slots alongside its InstNets yields its pins net by net.
	// Private to the cache (4 B per pin): Compact is shared by every stage
	// and no other consumer needs it.
	slotStart []int32
	slots     []int32
}

// NewWirelenCache builds the cache from current pin positions in O(pins).
func NewWirelenCache(d *Design) *WirelenCache {
	n := len(d.Nets)
	c := &WirelenCache{
		d:    d,
		cm:   d.Compact(),
		minX: make([]float64, n),
		maxX: make([]float64, n),
		minY: make([]float64, n),
		maxY: make([]float64, n),
		hp:   make([]float64, n),
	}
	c.indexSlots()
	c.rebuild()
	return c
}

// rebuild recomputes every net's bounding box from current positions.
func (c *WirelenCache) rebuild() {
	n := len(c.d.Nets)
	c.pos.Gather(c.d)
	for i := 0; i < n; i++ {
		c.recompute(i)
	}
}

// indexSlots builds the instance -> pin-slot CSR by count-then-fill over the
// compact pin array; filling in slot order leaves each instance's slots
// ascending.
func (c *WirelenCache) indexSlots() {
	cm := c.cm
	nInst := len(cm.InstStart) - 1
	c.slotStart = make([]int32, nInst+1)
	for _, id := range cm.PinInst {
		if id >= 0 {
			c.slotStart[id+1]++
		}
	}
	for i := 0; i < nInst; i++ {
		c.slotStart[i+1] += c.slotStart[i]
	}
	c.slots = make([]int32, c.slotStart[nInst])
	next := make([]int32, nInst)
	copy(next, c.slotStart)
	for k, id := range cm.PinInst {
		if id >= 0 {
			c.slots[next[id]] = int32(k)
			next[id]++
		}
	}
}

// recompute rebuilds one net's bbox from scratch.
func (c *WirelenCache) recompute(netID int) {
	if c.cm.NumNetPins(netID) < 2 {
		c.hp[netID] = 0
		return
	}
	minX, maxX, minY, maxY := c.cm.netBox(&c.pos, netID)
	c.minX[netID], c.maxX[netID] = minX, maxX
	c.minY[netID], c.maxY[netID] = minY, maxY
	c.hp[netID] = (maxX - minX) + (maxY - minY)
}

// NetHPWL returns the cached half-perimeter wirelength of a net in O(1).
func (c *WirelenCache) NetHPWL(netID int) float64 { return c.hp[netID] }

// Total returns the summed HPWL. Per-net values are added in net order — the
// same association as Design.HPWL — so the result is bit-identical to it.
func (c *WirelenCache) Total() float64 {
	var sum float64
	for _, v := range c.hp {
		sum += v
	}
	return sum
}

// PinXY returns the position of compact pin slot k under the cache's current
// positions.
func (c *WirelenCache) PinXY(k int32) (x, y float64) {
	return c.cm.PinXY(&c.pos, k)
}

// InstXY returns the cache's mirror of instance id's origin.
func (c *WirelenCache) InstXY(id int) (x, y float64) { return c.pos.InstX[id], c.pos.InstY[id] }

// MoveCell sets the instance origin to (x, y) and updates the bboxes of its
// incident nets in O(pins of the cell). A net whose old bbox edge was defined
// by a moved pin that moves inward loses that edge to an unknown runner-up,
// forcing an exact O(pins of the net) recompute of that net; all other nets
// update by pure expansion. Steady-state calls allocate nothing.
func (c *WirelenCache) MoveCell(id int, x, y float64) {
	inst := c.d.Insts[id]
	oldX, oldY := inst.X, inst.Y
	inst.X, inst.Y = x, y
	c.pos.InstX[id], c.pos.InstY[id] = x, y
	if oldX == x && oldY == y {
		return
	}
	cm := c.cm
	s, end := c.slotStart[id], c.slotStart[id+1]
	for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
		n := cm.InstNets[j]
		// The cell's slots on net n: the run below the net's end.
		e := s
		for hi := cm.NetStart[n+1]; e < end && c.slots[e] < hi; e++ {
		}
		c.moveOnNet(int(n), c.slots[s:e], x, y, oldX, oldY)
		s = e
	}
}

// SwapCost prices the swap of instances a and b without performing it. It
// returns the summed cached HPWL of their nets — a's nets in InstNets order,
// then b's nets that are not on a — and the same sum as it would read after
// MoveCell(a, b's origin) then MoveCell(b, a's origin), equal bit for bit
// up to the sign of a zero. It writes nothing, so calls may run
// concurrently with each other (not with MoveCell), and a rejected trial
// leaves nothing to revert.
func (c *WirelenCache) SwapCost(a, b int) (before, after float64) {
	cm := c.cm
	sa, saEnd := c.slotStart[a], c.slotStart[a+1]
	sb, sbEnd := c.slotStart[b], c.slotStart[b+1]
	for j := cm.InstStart[a]; j < cm.InstStart[a+1]; j++ {
		n := cm.InstNets[j]
		pa := c.slotsOn(&sa, saEnd, n)
		pb := c.slotsOn(&sb, sbEnd, n)
		before += c.hp[n]
		after += c.swappedHPWL(int(n), a, b, pa, pb)
	}
	sa, sb = c.slotStart[a], c.slotStart[b]
	for j := cm.InstStart[b]; j < cm.InstStart[b+1]; j++ {
		n := cm.InstNets[j]
		if len(c.slotsOn(&sa, saEnd, n)) > 0 {
			continue // on a too: priced above
		}
		before += c.hp[n]
		after += c.swappedHPWL(int(n), a, b, nil, c.slotsOn(&sb, sbEnd, n))
	}
	return before, after
}

// slotsOn returns the run of an instance's ascending pin slots, read from
// *s up to end, that lie on net n, and advances *s past it. Called with
// ascending n, it walks each slot once.
func (c *WirelenCache) slotsOn(s *int32, end, n int32) []int32 {
	lo, hi := c.cm.NetStart[n], c.cm.NetStart[n+1]
	for *s < end && c.slots[*s] < lo {
		*s++
	}
	first := *s
	for *s < end && c.slots[*s] < hi {
		*s++
	}
	return c.slots[first:*s]
}

// swappedHPWL returns net n's HPWL with instances a and b at each other's
// origins; pa and pb are their pin slots on the net. It replays moveOnNet's
// rule on a copy of the cached box: a pin that owns an edge and moves
// inward forces an exact recompute over the net's pins, otherwise the box
// only expands. Both yield the exact box of the swapped positions, which is
// the box the two MoveCell calls would leave.
func (c *WirelenCache) swappedHPWL(n, a, b int, pa, pb []int32) float64 {
	cm := c.cm
	if cm.NumNetPins(n) < 2 {
		return c.hp[n]
	}
	ax, ay := c.pos.InstX[a], c.pos.InstY[a]
	bx, by := c.pos.InstX[b], c.pos.InstY[b]
	minX, maxX, minY, maxY := c.minX[n], c.maxX[n], c.minY[n], c.maxY[n]
	if c.leavesEdge(n, pa, ax, ay, bx, by) || c.leavesEdge(n, pb, bx, by, ax, ay) {
		minX, minY = 1e308, 1e308
		maxX, maxY = -1e308, -1e308
		for k := cm.NetStart[n]; k < cm.NetStart[n+1]; k++ {
			var x, y float64
			switch int(cm.PinInst[k]) {
			case a:
				x, y = bx+cm.pinDX[k], by+cm.pinDY[k]
			case b:
				x, y = ax+cm.pinDX[k], ay+cm.pinDY[k]
			default:
				x, y = cm.PinXY(&c.pos, k)
			}
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
		}
		return (maxX - minX) + (maxY - minY)
	}
	for _, k := range pa {
		x, y := bx+cm.pinDX[k], by+cm.pinDY[k]
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	for _, k := range pb {
		x, y := ax+cm.pinDX[k], ay+cm.pinDY[k]
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	return (maxX - minX) + (maxY - minY)
}

// leavesEdge reports whether a pin of pins, moved with its cell from
// (oldX, oldY) to (x, y), owns an edge of net n's cached box and moves off
// it inward, after which the new edge may be any other pin and only an
// exact recompute finds it.
func (c *WirelenCache) leavesEdge(n int, pins []int32, oldX, oldY, x, y float64) bool {
	cm := c.cm
	for _, k := range pins {
		ox, oy := oldX+cm.pinDX[k], oldY+cm.pinDY[k]
		nx, ny := x+cm.pinDX[k], y+cm.pinDY[k]
		if (ox == c.minX[n] && nx > ox) || (ox == c.maxX[n] && nx < ox) ||
			(oy == c.minY[n] && ny > oy) || (oy == c.maxY[n] && ny < oy) {
			return true
		}
	}
	return false
}

// moveOnNet updates net netID's bbox for a cell moved from (oldX, oldY) to
// (x, y); pins are the cell's pin slots on the net.
func (c *WirelenCache) moveOnNet(netID int, pins []int32, x, y, oldX, oldY float64) {
	cm := c.cm
	if cm.NetStart[netID+1]-cm.NetStart[netID] < 2 {
		return
	}
	// Pass 1: does any moved pin own a bbox edge and move off it inward?
	// Then the new edge may be any other pin — recompute exactly.
	if c.leavesEdge(netID, pins, oldX, oldY, x, y) {
		c.recompute(netID)
		return
	}
	// Pass 2: every moved pin stayed put or moved outward; expand the bbox.
	for _, k := range pins {
		nx, ny := x+cm.pinDX[k], y+cm.pinDY[k]
		if nx < c.minX[netID] {
			c.minX[netID] = nx
		}
		if nx > c.maxX[netID] {
			c.maxX[netID] = nx
		}
		if ny < c.minY[netID] {
			c.minY[netID] = ny
		}
		if ny > c.maxY[netID] {
			c.maxY[netID] = ny
		}
	}
	c.hp[netID] = (c.maxX[netID] - c.minX[netID]) + (c.maxY[netID] - c.minY[netID])
}
