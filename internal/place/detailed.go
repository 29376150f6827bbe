package place

import (
	"math"
	"math/rand"

	"ppaclust/internal/netlist"
)

// DetailedOptions configures detailed placement.
type DetailedOptions struct {
	// Seed drives the visit order.
	Seed int64
}

// detailedPasses is the number of passes over all cells.
const detailedPasses = 2

// DetailedResult reports the refinement outcome.
type DetailedResult struct {
	HPWLBefore float64
	HPWLAfter  float64
	Swaps      int
	// Moves is always 0: the placer only swaps equal-width cells and never
	// moves one into whitespace. The field stays for its readers.
	Moves int
}

// Detailed runs swap-based detailed placement on a legalized design: every
// movable cell is driven toward the median of its connected pins, realized
// as a swap with the equal-width cell nearest that spot. Only strictly
// HPWL-improving swaps are accepted, so the result is never worse than the
// input and stays legal. The cost is O(pins of the cells visited) per pass;
// a core with no area leaves the design untouched.
func Detailed(d *netlist.Design, opt DetailedOptions) DetailedResult {
	dp := newDetailer(d, opt)
	hpwl := dp.wl.Total()
	res := DetailedResult{HPWLBefore: hpwl, HPWLAfter: hpwl}
	if len(dp.cells) == 0 || !(d.Core.W() > 0 && d.Core.H() > 0) {
		return res
	}
	for pass := 0; pass < detailedPasses; pass++ {
		res.Swaps += dp.pass()
	}
	res.HPWLAfter = dp.wl.Total()
	return res
}

// detailGridN is the side of the coarse bucket grid candidates are looked up
// on.
const detailGridN = 24

// detailMaxNetPins: nets with more pins are skipped when computing a cell's
// optimal region.
const detailMaxNetPins = 64

// detailer is the state of one Detailed call. Everything the swap loop
// touches is a flat array sized at set-up, so a pass allocates nothing.
type detailer struct {
	d  *netlist.Design
	cm *netlist.Compact
	// All wirelength reads and writes in the swap loop go through the
	// incremental bbox cache: a candidate swap touches O(pins-of-cell) state
	// instead of recomputing every incident net. Cached values are
	// bit-identical to Design.HPWL, so accept/revert decisions — and the
	// final placement — match the from-scratch evaluation exactly.
	wl *netlist.WirelenCache

	// Movable core cells in instance order, their width class (cells swap
	// only within a class, which preserves legality) and visit order.
	cells []int32
	class []int32
	order []int
	nCls  int

	// Spatial index, rebuilt once per pass and deliberately stale within it:
	// run b*nCls+c holds the class-c cells whose centre fell in bucket b at
	// rebuild time, in instance order, as entries
	// ex/ey/eid[runStart[run]:runStart[run+1]]. Bucket membership is stale
	// but coordinates are live: an accepted swap rewrites the centres of its
	// two entries. entry[ci] locates cell ci's own entry.
	bw, bh   float64
	runStart []int32
	ex, ey   []float64
	eid      []int32
	entry    []int32
	runOf    []int32 // rebuild scratch: run of each cell
	fill     []int32 // rebuild scratch: next free entry of each run

	// netCost dedup stamps and optimalSpot median buffers.
	stamp  []int64
	epoch  int64
	xs, ys []float64

	// Spot cache: cell ci's optimalSpot as last computed, when moves was
	// spotAt[ci] (-1: never). An accepted swap counts itself in moves and
	// stamps every net of its two cells with the count in netMoved. Only an
	// accepted swap moves a pin — a rejected trial restores both origins bit
	// for bit — so a spot stays exact while none of its cell's spot nets
	// (those of at most detailMaxNetPins pins) carries a later stamp.
	spotX, spotY []float64
	spotOK       []bool
	spotAt       []int
	netMoved     []int
	moves        int
}

func newDetailer(d *netlist.Design, opt DetailedOptions) *detailer {
	cm := d.Compact()
	dp := &detailer{
		d:        d,
		cm:       cm,
		wl:       netlist.NewWirelenCache(d),
		bw:       d.Core.W() / detailGridN,
		bh:       d.Core.H() / detailGridN,
		stamp:    make([]int64, len(d.Nets)),
		netMoved: make([]int, len(d.Nets)),
	}
	dp.cells = make([]int32, 0, len(d.Insts))
	dp.class = make([]int32, 0, len(d.Insts))
	classOf := make(map[float64]int32)
	spotPins := 0
	for _, inst := range d.Insts {
		if inst.Fixed || inst.Master.Class != netlist.ClassCore {
			continue
		}
		c, ok := classOf[inst.Master.Width]
		if !ok {
			c = int32(dp.nCls)
			dp.nCls++
			classOf[inst.Master.Width] = c
		}
		dp.cells = append(dp.cells, int32(inst.ID))
		dp.class = append(dp.class, c)
		// optimalSpot gathers at most every pin of the cell's small nets.
		n := 0
		for j := cm.InstStart[inst.ID]; j < cm.InstStart[inst.ID+1]; j++ {
			if np := cm.NumNetPins(int(cm.InstNets[j])); np <= detailMaxNetPins {
				n += np
			}
		}
		spotPins = max(spotPins, n)
	}
	nCells := len(dp.cells)
	dp.order = rand.New(rand.NewSource(opt.Seed + 31)).Perm(nCells)
	dp.runStart = make([]int32, detailGridN*detailGridN*dp.nCls+1)
	dp.fill = make([]int32, len(dp.runStart)-1)
	dp.ex = make([]float64, nCells)
	dp.ey = make([]float64, nCells)
	dp.eid = make([]int32, nCells)
	dp.entry = make([]int32, nCells)
	dp.runOf = make([]int32, nCells)
	dp.xs = make([]float64, 0, spotPins)
	dp.ys = make([]float64, 0, spotPins)
	dp.spotX = make([]float64, nCells)
	dp.spotY = make([]float64, nCells)
	dp.spotOK = make([]bool, nCells)
	dp.spotAt = make([]int, nCells)
	for ci := range dp.spotAt {
		dp.spotAt[ci] = -1
	}
	return dp
}

// bucketOf returns the grid bucket of a point, clamping points outside the
// core (and non-finite ones) to the border buckets.
func (dp *detailer) bucketOf(x, y float64) int {
	return clampBucket((y-dp.d.Core.Y0)/dp.bh)*detailGridN + clampBucket((x-dp.d.Core.X0)/dp.bw)
}

func clampBucket(f float64) int {
	switch {
	case !(f >= 0):
		return 0
	case f >= detailGridN:
		return detailGridN - 1
	}
	return int(f)
}

// rebuild re-buckets every cell by count-then-fill; filling in cell order
// keeps each run in instance order, which fixes nearestSameWidth's tie-break.
func (dp *detailer) rebuild() {
	clear(dp.runStart)
	for ci, id := range dp.cells {
		inst := dp.d.Insts[id]
		run := int32(dp.bucketOf(inst.CenterX(), inst.CenterY())*dp.nCls) + dp.class[ci]
		dp.runOf[ci] = run
		dp.runStart[run+1]++
	}
	for r := range dp.fill {
		dp.fill[r] = dp.runStart[r]
		dp.runStart[r+1] += dp.runStart[r]
	}
	for ci, id := range dp.cells {
		e := dp.fill[dp.runOf[ci]]
		dp.fill[dp.runOf[ci]]++
		dp.entry[ci] = e
		dp.eid[e] = id
		dp.setCentre(e)
	}
}

// setCentre refreshes entry e's coordinates from its instance.
func (dp *detailer) setCentre(e int32) {
	inst := dp.d.Insts[dp.eid[e]]
	dp.ex[e], dp.ey[e] = inst.CenterX(), inst.CenterY()
}

// pass visits every cell once and returns the number of accepted swaps.
func (dp *detailer) pass() int {
	dp.rebuild()
	swaps := 0
	for _, ci := range dp.order {
		id := dp.cells[ci]
		ox, oy, ok := dp.spot(ci)
		if !ok {
			continue
		}
		self := dp.entry[ci]
		if math.Abs(ox-dp.ex[self])+math.Abs(oy-dp.ey[self]) < dp.bw/2 {
			continue // already near-optimal
		}
		// Candidate: equal-width cell nearest the optimal spot.
		cand := dp.nearestSameWidth(self, dp.class[ci], ox, oy)
		if cand < 0 {
			continue
		}
		a, b := int(id), int(dp.eid[cand])
		before := dp.netCost(a, b)
		ax, ay := dp.wl.InstXY(a)
		bx, by := dp.wl.InstXY(b)
		dp.wl.MoveCell(a, bx, by)
		dp.wl.MoveCell(b, ax, ay)
		if dp.netCost(a, b) < before-1e-9 {
			swaps++
			dp.moves++
			dp.stampNets(a)
			dp.stampNets(b)
			dp.setCentre(self)
			dp.setCentre(cand)
		} else {
			// Revert.
			dp.wl.MoveCell(a, ax, ay)
			dp.wl.MoveCell(b, bx, by)
		}
	}
	return swaps
}

// netCost sums the cached HPWL of the nets touching the two instances (the
// only terms a swap can alter), deduped with an epoch stamp.
func (dp *detailer) netCost(id1, id2 int) float64 {
	dp.epoch++
	cm := dp.cm
	var sum float64
	for _, id := range [2]int{id1, id2} {
		for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
			n := cm.InstNets[j]
			if dp.stamp[n] != dp.epoch {
				dp.stamp[n] = dp.epoch
				sum += dp.wl.NetHPWL(int(n))
			}
		}
	}
	return sum
}

// stampNets marks every net of instance id as moved at the current swap
// count.
func (dp *detailer) stampNets(id int) {
	cm := dp.cm
	for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
		dp.netMoved[cm.InstNets[j]] = dp.moves
	}
}

// spot returns cell ci's optimalSpot, recomputing it only when the cache
// cannot vouch for it.
func (dp *detailer) spot(ci int) (float64, float64, bool) {
	if !dp.spotFresh(ci) {
		dp.spotX[ci], dp.spotY[ci], dp.spotOK[ci] = dp.optimalSpot(dp.cells[ci])
		dp.spotAt[ci] = dp.moves
	}
	return dp.spotX[ci], dp.spotY[ci], dp.spotOK[ci]
}

// spotFresh reports whether cell ci's cached spot was computed and no
// accepted swap has since moved a cell on one of its spot nets.
func (dp *detailer) spotFresh(ci int) bool {
	at := dp.spotAt[ci]
	if at < 0 {
		return false
	}
	cm := dp.cm
	id := dp.cells[ci]
	for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
		n := cm.InstNets[j]
		if dp.netMoved[n] > at && cm.NumNetPins(int(n)) <= detailMaxNetPins {
			return false
		}
	}
	return true
}

// optimalSpot returns the median position of the other pins on the cell's
// nets — the classic optimal-region center for single-cell moves. Nets with
// more than detailMaxNetPins pins are skipped.
func (dp *detailer) optimalSpot(id int32) (float64, float64, bool) {
	cm := dp.cm
	xs, ys := dp.xs[:0], dp.ys[:0]
	for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
		n := cm.InstNets[j]
		lo, hi := cm.NetStart[n], cm.NetStart[n+1]
		if int(hi-lo) > detailMaxNetPins {
			continue
		}
		for k := lo; k < hi; k++ {
			if cm.PinInst[k] == id {
				continue
			}
			x, y := dp.wl.PinXY(k)
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	if len(xs) == 0 {
		return 0, 0, false
	}
	return selectKth(xs, len(xs)/2), selectKth(ys, len(ys)/2), true
}

// selectKth reorders a and returns the value a sort would put at index k,
// by Hoare's FIND: partition around a[k], keep the side that holds k. Among
// finite inputs that value is unique even with ties; only a zero may come
// back with the other sign, which the callers' differences and math.Abs
// cannot see.
func selectKth(a []float64, k int) float64 {
	l, r := 0, len(a)-1
	for l < r {
		x := a[k]
		i, j := l, r
		for i <= j {
			for a[i] < x {
				i++
			}
			for x < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < k {
			l = i
		}
		if k < i {
			r = j
		}
	}
	return a[k]
}

// nearestSameWidth scans outward from the bucket of (ox, oy), ring by ring,
// for the entry of class cls closest to that point, skipping the cell's own
// entry self; -1 if the three rings hold none. Ties keep the first entry met.
func (dp *detailer) nearestSameWidth(self, cls int32, ox, oy float64) int32 {
	start := dp.bucketOf(ox, oy)
	si, sj := start%detailGridN, start/detailGridN
	best := int32(-1)
	bestD := math.Inf(1)
	for r := 0; r <= 2; r++ {
		for dj := -r; dj <= r; dj++ {
			for di := -r; di <= r; di++ {
				if maxAbs(di, dj) != r {
					continue
				}
				i, j := si+di, sj+dj
				if i < 0 || i >= detailGridN || j < 0 || j >= detailGridN {
					continue
				}
				run := (j*detailGridN+i)*dp.nCls + int(cls)
				for e := dp.runStart[run]; e < dp.runStart[run+1]; e++ {
					if e == self {
						continue
					}
					dd := math.Abs(dp.ex[e]-ox) + math.Abs(dp.ey[e]-oy)
					if dd < bestD {
						best, bestD = e, dd
					}
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	return best
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}
