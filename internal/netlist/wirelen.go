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
// The cache runs on the design's Compact CSR view plus its own position
// mirrors (instance origins and port coordinates in flat arrays) and an
// instance -> pin-slot index, so the move path walks contiguous
// int32/float64 memory with no master-pin map lookups and never scans a net
// to find the moved cell's pins on it.
//
// All cached values are bit-identical (math.Float64bits) to Design.NetHPWL /
// Design.HPWL on the same positions: the from-scratch recompute uses the
// exact comparison structure of NetHPWL over positions computed by PinPos's
// own rule (origin plus resolved offset), and the incremental expansion only
// replaces a bound on a strict inequality — the same rule NetHPWL applies —
// so a bound never changes bits without changing value.
//
// The cache assumes a frozen topology: positions change only through
// MoveCell. Adding instances, nets or pins, or moving a cell any other way,
// invalidates the cache; build a new one afterwards.
type WirelenCache struct {
	d                      *Design
	cm                     *Compact
	minX, maxX, minY, maxY []float64
	hp                     []float64

	// Cache-owned position mirrors, indexed like Compact's pin references.
	// MoveCell writes instX/instY alongside Instance.X/Y; ports cannot move
	// through this cache, so portX/portY are snapshots from rebuild.
	instX, instY []float64
	portX, portY []float64

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
	c := &WirelenCache{d: d}
	c.rebuild()
	return c
}

// rebuild recomputes every net's bounding box from current positions and
// refreshes the compact connectivity snapshot.
func (c *WirelenCache) rebuild() {
	if cm := c.d.Compact(); cm != c.cm {
		c.cm = cm
		c.indexSlots()
	}
	n := len(c.d.Nets)
	if len(c.hp) != n {
		c.minX = make([]float64, n)
		c.maxX = make([]float64, n)
		c.minY = make([]float64, n)
		c.maxY = make([]float64, n)
		c.hp = make([]float64, n)
	}
	if len(c.instX) != len(c.d.Insts) {
		c.instX = make([]float64, len(c.d.Insts))
		c.instY = make([]float64, len(c.d.Insts))
	}
	for i, inst := range c.d.Insts {
		c.instX[i] = inst.X
		c.instY[i] = inst.Y
	}
	if len(c.portX) != len(c.d.Ports) {
		c.portX = make([]float64, len(c.d.Ports))
		c.portY = make([]float64, len(c.d.Ports))
	}
	for i, p := range c.d.Ports {
		c.portX[i] = p.X
		c.portY[i] = p.Y
	}
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

// recompute rebuilds one net's bbox from scratch, mirroring NetHPWL.
func (c *WirelenCache) recompute(netID int) {
	cm := c.cm
	lo, hi := cm.NetStart[netID], cm.NetStart[netID+1]
	if hi-lo < 2 {
		c.hp[netID] = 0
		return
	}
	minX, minY := 1e308, 1e308
	maxX, maxY := -1e308, -1e308
	for k := lo; k < hi; k++ {
		x, y := cm.pinXY(k, c.instX, c.instY, c.portX, c.portY)
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
// positions, bit-identical to Design.PinPos on the same pin.
func (c *WirelenCache) PinXY(k int32) (x, y float64) {
	return c.cm.pinXY(k, c.instX, c.instY, c.portX, c.portY)
}

// InstXY returns the cache's mirror of instance id's origin.
func (c *WirelenCache) InstXY(id int) (x, y float64) { return c.instX[id], c.instY[id] }

// MoveCell sets the instance origin to (x, y) and updates the bboxes of its
// incident nets in O(pins of the cell). A net whose old bbox edge was defined
// by a moved pin that moves inward loses that edge to an unknown runner-up,
// forcing an exact O(pins of the net) recompute of that net; all other nets
// update by pure expansion. Steady-state calls allocate nothing.
func (c *WirelenCache) MoveCell(id int, x, y float64) {
	inst := c.d.Insts[id]
	oldX, oldY := inst.X, inst.Y
	inst.X, inst.Y = x, y
	c.instX[id], c.instY[id] = x, y
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

// moveOnNet updates net netID's bbox for a cell moved from (oldX, oldY) to
// (x, y); pins are the cell's pin slots on the net.
func (c *WirelenCache) moveOnNet(netID int, pins []int32, x, y, oldX, oldY float64) {
	cm := c.cm
	if cm.NetStart[netID+1]-cm.NetStart[netID] < 2 {
		return
	}
	// Pass 1: does any moved pin own a bbox edge and move off it inward?
	// Then the new edge may be any other pin — recompute exactly.
	for _, k := range pins {
		ox, oy := oldX+cm.PinDX[k], oldY+cm.PinDY[k]
		nx, ny := x+cm.PinDX[k], y+cm.PinDY[k]
		if (ox == c.minX[netID] && nx > ox) || (ox == c.maxX[netID] && nx < ox) ||
			(oy == c.minY[netID] && ny > oy) || (oy == c.maxY[netID] && ny < oy) {
			c.recompute(netID)
			return
		}
	}
	// Pass 2: every moved pin stayed put or moved outward; expand the bbox.
	for _, k := range pins {
		nx, ny := x+cm.PinDX[k], y+cm.PinDY[k]
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
