package place

import (
	"math"
	"math/rand"

	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
)

// DetailedOptions configures detailed placement.
type DetailedOptions struct {
	// Seed drives the visit order.
	Seed int64
	// Workers bounds the goroutines a pass evaluates its visits on: 0 =
	// auto (PPACLUST_WORKERS, else GOMAXPROCS). The result is bit-identical
	// at every worker count.
	Workers int
}

// detailedPasses is the number of passes over all cells.
const detailedPasses = 2

// detailChunk is the number of consecutive visits a pass evaluates side by
// side against one state before committing them in visit order. The
// evaluation hands out a chunk in detailSlices contiguous slices, so
// workers that draw cheap visits take more slices.
const (
	detailChunk  = 512
	detailSlices = 16
)

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
// a core with no area leaves the design untouched. Visits are evaluated on
// opt.Workers goroutines and committed in visit order, so the result is the
// serial one.
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
	// ex/ey/ecell[runStart[run]:runStart[run+1]] (ecell: the cell index).
	// Bucket membership is stale but coordinates are live: an accepted swap
	// rewrites the centres of its two entries and stamps their runs with
	// the swap count in runMoved. entry[ci] locates cell ci's own entry,
	// runOf[ci] its run.
	bw, bh   float64
	runStart []int32
	ex, ey   []float64
	ecell    []int32
	entry    []int32
	runOf    []int32
	runMoved []int
	fill     []int32 // rebuild scratch: next free entry of each run

	// Spot cache: cell ci's optimalSpot as last computed, when moves was
	// spotAt[ci] (-1: never). An accepted swap counts itself in moves and
	// stamps every net of its two cells with the count in netMoved. Only an
	// accepted swap moves a pin — a trial is priced without moving one — so
	// a spot stays exact while none of its cell's spot nets (those of at
	// most detailMaxNetPins pins) carries a later stamp.
	spotX, spotY []float64
	spotOK       []bool
	spotAt       []int
	netMoved     []int
	moves        int

	// The chunk of the visit order under evaluation, one result slot per
	// visit, one pair of optimalSpot median buffers per slice, and the fork
	// body, built once so a pass allocates only par.ForEach's own fork.
	workers   int
	chunk     []int
	visits    []visit
	medians   []medianBuf
	evalSlice func(s int)
}

// visit is what one visit decides, and what it read to decide it: cell
// ci's optimal spot (spotNew: computed, not taken from the cache), the
// ring radius its candidate search scanned (-1: it stopped before the
// search), the candidate entry it priced (-1: none) and whether the swap
// lowers HPWL.
type visit struct {
	ox, oy  float64
	spotOK  bool
	spotNew bool
	accept  bool
	ring    int32
	cand    int32
}

// medianBuf holds one slice's optimalSpot coordinate lists.
type medianBuf struct{ xs, ys []float64 }

func newDetailer(d *netlist.Design, opt DetailedOptions) *detailer {
	cm := d.Compact()
	dp := &detailer{
		d:        d,
		cm:       cm,
		wl:       netlist.NewWirelenCache(d),
		bw:       d.Core.W() / detailGridN,
		bh:       d.Core.H() / detailGridN,
		netMoved: make([]int, len(d.Nets)),
		workers:  par.Workers(opt.Workers),
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
	dp.runMoved = make([]int, len(dp.runStart)-1)
	dp.ex = make([]float64, nCells)
	dp.ey = make([]float64, nCells)
	dp.ecell = make([]int32, nCells)
	dp.entry = make([]int32, nCells)
	dp.runOf = make([]int32, nCells)
	dp.visits = make([]visit, min(detailChunk, nCells))
	dp.medians = make([]medianBuf, detailSlices)
	for s := range dp.medians {
		dp.medians[s] = medianBuf{make([]float64, 0, spotPins), make([]float64, 0, spotPins)}
	}
	dp.evalSlice = func(s int) {
		n := len(dp.chunk)
		k := min(detailSlices, n)
		for i := s * n / k; i < (s+1)*n/k; i++ {
			dp.evaluate(dp.chunk[i], &dp.visits[i], &dp.medians[s])
		}
	}
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
	for ci := range dp.cells {
		e := dp.fill[dp.runOf[ci]]
		dp.fill[dp.runOf[ci]]++
		dp.entry[ci] = e
		dp.ecell[e] = int32(ci)
		dp.setCentre(e)
	}
}

// setCentre refreshes entry e's coordinates from its instance.
func (dp *detailer) setCentre(e int32) {
	inst := dp.d.Insts[dp.cells[dp.ecell[e]]]
	dp.ex[e], dp.ey[e] = inst.CenterX(), inst.CenterY()
}

// pass visits every cell once and returns the number of accepted swaps.
// The visit order is cut into chunks of detailChunk visits (of one at one
// worker). Every visit of a chunk is first evaluated, on the workers,
// against the state at the chunk's start; the decisions are then committed
// in visit order, and a visit whose read set an earlier swap of the chunk
// touched (dirty) is evaluated again on the live state first. A clean visit
// read exactly what the serial pass would have read at its turn, so every
// commit is the serial pass's.
func (dp *detailer) pass() int {
	dp.rebuild()
	size := detailChunk
	if dp.workers == 1 {
		size = 1
	}
	swaps := 0
	for lo := 0; lo < len(dp.order); lo += size {
		dp.chunk = dp.order[lo:min(lo+size, len(dp.order))]
		start := dp.moves
		par.ForEach(dp.workers, min(detailSlices, len(dp.chunk)), dp.evalSlice)
		for i, ci := range dp.chunk {
			v := &dp.visits[i]
			if dp.moves > start && dp.dirty(ci, v, start) {
				dp.evaluate(ci, v, &dp.medians[0])
			}
			if dp.commit(ci, v) {
				swaps++
			}
		}
	}
	return swaps
}

// evaluate decides cell ci's visit on the current state and records the
// decision in v. It writes nothing else but the median buffers m, so
// visits on distinct slots and buffers may be evaluated side by side.
func (dp *detailer) evaluate(ci int, v *visit, m *medianBuf) {
	*v = visit{ring: -1, cand: -1}
	if dp.spotFresh(ci) {
		v.ox, v.oy, v.spotOK = dp.spotX[ci], dp.spotY[ci], dp.spotOK[ci]
	} else {
		v.ox, v.oy, v.spotOK = dp.optimalSpot(dp.cells[ci], m)
		v.spotNew = true
	}
	if !v.spotOK {
		return
	}
	self := dp.entry[ci]
	if math.Abs(v.ox-dp.ex[self])+math.Abs(v.oy-dp.ey[self]) < dp.bw/2 {
		return // already near-optimal
	}
	// Candidate: equal-width cell nearest the optimal spot.
	v.cand, v.ring = dp.nearestSameWidth(self, dp.class[ci], v.ox, v.oy)
	if v.cand < 0 {
		return
	}
	before, after := dp.wl.SwapCost(int(dp.cells[ci]), int(dp.cells[dp.ecell[v.cand]]))
	v.accept = after < before-1e-9
}

// dirty reports whether an accepted swap counted after start touched what
// cell ci's evaluation v read: a pin on a net of the cell, or of its
// candidate (the spot, the trial's boxes and pins), or an entry of the
// cell's class in the square of buckets the candidate search scanned. A
// swap stamps every net of both its cells, so the net test also covers the
// cell's own centre and the candidate's position whenever that cell has a
// net; a netless candidate lies in the scanned square, and a netless cell
// has no spot and reads nothing else.
func (dp *detailer) dirty(ci int, v *visit, start int) bool {
	if dp.netsMoved(int(dp.cells[ci]), start) {
		return true
	}
	if v.ring < 0 {
		return false
	}
	b := dp.bucketOf(v.ox, v.oy)
	si, sj, r := b%detailGridN, b/detailGridN, int(v.ring)
	for j := max(sj-r, 0); j <= min(sj+r, detailGridN-1); j++ {
		for i := max(si-r, 0); i <= min(si+r, detailGridN-1); i++ {
			if dp.runMoved[(j*detailGridN+i)*dp.nCls+int(dp.class[ci])] > start {
				return true
			}
		}
	}
	return v.cand >= 0 && dp.netsMoved(int(dp.cells[dp.ecell[v.cand]]), start)
}

// netsMoved reports whether a net of instance id carries a stamp later than
// start.
func (dp *detailer) netsMoved(id, start int) bool {
	cm := dp.cm
	for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
		if dp.netMoved[cm.InstNets[j]] > start {
			return true
		}
	}
	return false
}

// commit applies visit v of cell ci as the serial pass would at its turn:
// it caches a newly computed spot and performs an accepted swap, reporting
// whether it did.
func (dp *detailer) commit(ci int, v *visit) bool {
	if v.spotNew {
		dp.spotX[ci], dp.spotY[ci], dp.spotOK[ci] = v.ox, v.oy, v.spotOK
		dp.spotAt[ci] = dp.moves
	}
	if !v.accept {
		return false
	}
	self, cand := dp.entry[ci], v.cand
	a, b := int(dp.cells[ci]), int(dp.cells[dp.ecell[cand]])
	ax, ay := dp.wl.InstXY(a)
	bx, by := dp.wl.InstXY(b)
	dp.wl.MoveCell(a, bx, by)
	dp.wl.MoveCell(b, ax, ay)
	dp.moves++
	dp.stampNets(a)
	dp.stampNets(b)
	dp.setCentre(self)
	dp.setCentre(cand)
	dp.runMoved[dp.runOf[ci]] = dp.moves
	dp.runMoved[dp.runOf[dp.ecell[cand]]] = dp.moves
	return true
}

// stampNets marks every net of instance id as moved at the current swap
// count.
func (dp *detailer) stampNets(id int) {
	cm := dp.cm
	for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
		dp.netMoved[cm.InstNets[j]] = dp.moves
	}
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
// nets — the classic optimal-region center for single-cell moves — gathered
// in m. Nets with more than detailMaxNetPins pins are skipped.
func (dp *detailer) optimalSpot(id int32, m *medianBuf) (float64, float64, bool) {
	cm := dp.cm
	xs, ys := m.xs[:0], m.ys[:0]
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
// It also returns the radius of the last ring it scanned.
func (dp *detailer) nearestSameWidth(self, cls int32, ox, oy float64) (int32, int32) {
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
			return best, int32(r)
		}
	}
	return best, 2
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
