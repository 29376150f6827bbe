// Package route is a GCell-grid global router in the style of FastRoute: nets
// are decomposed into two-pin segments over rectilinear Steiner trees
// (iterated 1-Steiner; MST for tiny or huge nets), segments are routed with
// L/Z/U pattern routing against per-edge capacities, and overflowed nets are
// ripped up and rerouted with congestion-aware costs.
// Its outputs — routed wirelength and the GCell congestion distribution — are
// exactly what the paper's V-P&R cost (Eqs. 4-5) and post-route metrics need.
package route

import (
	"math"
	"sort"

	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
)

// Options configures global routing.
type Options struct {
	// CapacityH and CapacityV are routing track capacities per GCell edge.
	// Defaults 10 and 10.
	CapacityH, CapacityV int
	// Workers caps the worker goroutines used for net decomposition and
	// batched initial routing (0 = PPACLUST_WORKERS or GOMAXPROCS). Results
	// are bit-identical at every worker count.
	Workers int
}

// maxNetPins: nets with more pins are chain-routed instead of decomposed
// for quality.
const maxNetPins = 64

// passes counts the routing passes: the initial route and one rip-up and
// reroute of the nets that touch overflow.
const passes = 2

// gcellSize is the GCell edge length in microns: a ~40x40 grid over the
// core, at least 1 um.
func gcellSize(d *netlist.Design) float64 {
	return math.Max(math.Max(d.Core.W(), d.Core.H())/40, 1)
}

func (o Options) withDefaults() Options {
	if o.CapacityH <= 0 {
		o.CapacityH = 10
	}
	if o.CapacityV <= 0 {
		o.CapacityV = 10
	}
	return o
}

// Result reports global routing outcomes.
type Result struct {
	// WirelengthUM is the total routed wirelength in microns.
	WirelengthUM float64
	// Overflow is the total demand above capacity summed over edges.
	Overflow int
	// MaxCongestion is the highest edge utilization (use/capacity).
	MaxCongestion float64
	// Grid exposes the congestion distribution for Eq. 5.
	Grid *Grid
	// Vias counts bends (layer changes) across all routed segments.
	Vias int
}

// Grid is the GCell routing grid with per-edge usage.
type Grid struct {
	core   netlist.Rect
	nx, ny int
	size   float64
	hUse   []int // edge (i,j)->(i+1,j): index j*(nx-1)+i
	vUse   []int // edge (i,j)->(i,j+1): index j*nx+i
	hCap   int
	vCap   int
}

// newGrid builds an empty routing grid over the core.
func newGrid(core netlist.Rect, size float64, capH, capV int) *Grid {
	nx := int(math.Ceil(core.W()/size)) + 1
	ny := int(math.Ceil(core.H()/size)) + 1
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	return &Grid{
		core: core, nx: nx, ny: ny, size: size,
		hUse: make([]int, (nx-1)*ny),
		vUse: make([]int, nx*(ny-1)),
		hCap: capH, vCap: capV,
	}
}

// Cell maps a physical position to GCell coordinates.
func (g *Grid) Cell(x, y float64) (int, int) {
	i := int((x - g.core.X0) / g.size)
	j := int((y - g.core.Y0) / g.size)
	if i < 0 {
		i = 0
	}
	if i >= g.nx {
		i = g.nx - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= g.ny {
		j = g.ny - 1
	}
	return i, j
}

func (g *Grid) hIdx(i, j int) int { return j*(g.nx-1) + i }
func (g *Grid) vIdx(i, j int) int { return j*g.nx + i }

// edgeCost is the congestion-aware cost of using an edge once more.
func edgeCost(use, cap int) float64 {
	if cap <= 0 {
		return 1e6
	}
	over := float64(use+1-cap) / float64(cap)
	if over <= 0 {
		return 1
	}
	return 1 + 20*over*over + 4*over
}

func (g *Grid) applyH(i0, i1, j, delta int) {
	if i0 > i1 {
		i0, i1 = i1, i0
	}
	for i := i0; i < i1; i++ {
		g.hUse[g.hIdx(i, j)] += delta
	}
}

func (g *Grid) applyV(j0, j1, i, delta int) {
	if j0 > j1 {
		j0, j1 = j1, j0
	}
	for j := j0; j < j1; j++ {
		g.vUse[g.vIdx(i, j)] += delta
	}
}

// segRoute is one routed 2-pin connection: an optional Z with two bends.
// Path: (i0,j0) -> (im,j0) -> (im,j1) -> (i1,j1) horizontally-first, or the
// vertical-first mirror.
type segRoute struct {
	i0, j0, i1, j1 int
	im             int  // intermediate column (hFirst) or row (!hFirst)
	hFirst         bool // horizontal-vertical-horizontal vs V-H-V
}

func (g *Grid) apply(s segRoute, delta int) {
	if s.hFirst {
		g.applyH(s.i0, s.im, s.j0, delta)
		g.applyV(s.j0, s.j1, s.im, delta)
		g.applyH(s.im, s.i1, s.j1, delta)
	} else {
		g.applyV(s.j0, s.im, s.i0, delta)
		g.applyH(s.i0, s.i1, s.im, delta)
		g.applyV(s.im, s.j1, s.i1, delta)
	}
}

// routeCtx prices candidate routes against the grid plus an optional overlay
// of one net's own, not-yet-merged usage. Batched initial routing freezes
// the grid for a whole batch — every net prices edges against the same
// snapshot, which is what makes the batch independent of how its nets are
// split across workers — and the overlay lets a net's later segments still
// see its earlier ones, exactly what the serial walk saw. The overlay counts
// are generation-stamped with the net ID, so switching nets never clears the
// tiny grid-sized arrays. A zero ctx (nil overlay) reads the live grid.
type routeCtx struct {
	g          *Grid
	ownH, ownV []int32 // own-usage counts, valid where the stamp matches gen
	stH, stV   []int32
	gen        int32
}

func (c *routeCtx) useH(idx int) int {
	u := c.g.hUse[idx]
	if c.stH != nil && c.stH[idx] == c.gen {
		u += int(c.ownH[idx])
	}
	return u
}

func (c *routeCtx) useV(idx int) int {
	u := c.g.vUse[idx]
	if c.stV != nil && c.stV[idx] == c.gen {
		u += int(c.ownV[idx])
	}
	return u
}

// runCostH/runCostV price a straight run; addOwnH/addOwnV record one into
// the overlay.
func (c *routeCtx) runCostH(i0, i1, j int) float64 {
	if i0 > i1 {
		i0, i1 = i1, i0
	}
	g := c.g
	var cost float64
	for i := i0; i < i1; i++ {
		cost += edgeCost(c.useH(g.hIdx(i, j)), g.hCap)
	}
	return cost
}

func (c *routeCtx) runCostV(j0, j1, i int) float64 {
	if j0 > j1 {
		j0, j1 = j1, j0
	}
	g := c.g
	var cost float64
	for j := j0; j < j1; j++ {
		cost += edgeCost(c.useV(g.vIdx(i, j)), g.vCap)
	}
	return cost
}

func (c *routeCtx) addOwnH(i0, i1, j int) {
	if i0 > i1 {
		i0, i1 = i1, i0
	}
	g := c.g
	for i := i0; i < i1; i++ {
		idx := g.hIdx(i, j)
		if c.stH[idx] != c.gen {
			c.stH[idx] = c.gen
			c.ownH[idx] = 0
		}
		c.ownH[idx]++
	}
}

func (c *routeCtx) addOwnV(j0, j1, i int) {
	if j0 > j1 {
		j0, j1 = j1, j0
	}
	g := c.g
	for j := j0; j < j1; j++ {
		idx := g.vIdx(i, j)
		if c.stV[idx] != c.gen {
			c.stV[idx] = c.gen
			c.ownV[idx] = 0
		}
		c.ownV[idx]++
	}
}

func (c *routeCtx) addOwn(s segRoute) {
	if s.hFirst {
		c.addOwnH(s.i0, s.im, s.j0)
		c.addOwnV(s.j0, s.j1, s.im)
		c.addOwnH(s.im, s.i1, s.j1)
	} else {
		c.addOwnV(s.j0, s.im, s.i0)
		c.addOwnH(s.i0, s.i1, s.im)
		c.addOwnV(s.im, s.j1, s.i1)
	}
}

func (c *routeCtx) cost(s segRoute) float64 {
	if s.hFirst {
		return c.runCostH(s.i0, s.im, s.j0) + c.runCostV(s.j0, s.j1, s.im) + c.runCostH(s.im, s.i1, s.j1)
	}
	return c.runCostV(s.j0, s.im, s.i0) + c.runCostH(s.i0, s.i1, s.im) + c.runCostV(s.im, s.j1, s.i1)
}

// route finds the best L/Z/U route for a 2-pin segment. Candidates are
// tried in a fixed order and strict improvement wins, so the choice is a
// pure function of the ctx's view of edge usage.
func (c *routeCtx) route(i0, j0, i1, j1 int) segRoute {
	g := c.g
	best := segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: i1, hFirst: true} // L: H then V
	bestCost := c.cost(best)
	try := func(s segRoute) {
		if cc := c.cost(s); cc < bestCost {
			best, bestCost = s, cc
		}
	}
	try(segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: i0, hFirst: true})  // V then H (im=i0)
	try(segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: j1, hFirst: false}) // degenerate mirrors
	try(segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: j0, hFirst: false})
	// Z candidates: a few intermediate columns/rows.
	if di := abs(i1 - i0); di > 1 {
		for _, f := range []float64{0.25, 0.5, 0.75} {
			im := i0 + int(f*float64(i1-i0))
			try(segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: im, hFirst: true})
		}
	}
	if dj := abs(j1 - j0); dj > 1 {
		for _, f := range []float64{0.25, 0.5, 0.75} {
			jm := j0 + int(f*float64(j1-j0))
			try(segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: jm, hFirst: false})
		}
	}
	// U-detours: essential escape for straight runs through congestion
	// (the Z candidates above degenerate when the pins share a row/column).
	for _, dj := range []int{-2, -1, 1, 2} {
		jm := clampInt(j0+dj, 0, g.ny-1)
		try(segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: jm, hFirst: false})
	}
	for _, di := range []int{-2, -1, 1, 2} {
		im := clampInt(i0+di, 0, g.nx-1)
		try(segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: im, hFirst: true})
	}
	return best
}

// route against the live grid (no overlay): the rip-up passes and the tests
// use this serial view.
func (g *Grid) route(i0, j0, i1, j1 int) segRoute {
	c := routeCtx{g: g}
	return c.route(i0, j0, i1, j1)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (s segRoute) length() int {
	if s.hFirst {
		return abs(s.im-s.i0) + abs(s.j1-s.j0) + abs(s.i1-s.im)
	}
	return abs(s.im-s.j0) + abs(s.i1-s.i0) + abs(s.j1-s.im)
}

func (s segRoute) bends() int {
	b := 0
	if s.hFirst {
		if s.im != s.i0 && s.j1 != s.j0 {
			b++
		}
		if s.im != s.i1 && s.j1 != s.j0 {
			b++
		}
	} else {
		if s.im != s.j0 && s.i1 != s.i0 {
			b++
		}
		if s.im != s.j1 && s.i1 != s.i0 {
			b++
		}
	}
	return b
}

// routeBatch is the number of nets initial routing prices against one
// frozen grid snapshot before merging their usage. Smaller batches track
// the serial congestion estimate more closely; larger ones amortize the
// merge. The size is a fixed constant — never derived from the worker
// count — so batch boundaries, and therefore results, are identical at
// every worker count.
const routeBatch = 1024

// routeScratch is one worker's reusable state: the GCell dedup stamps, the
// pin-cell buffer, the decomposition scratch, the own-usage overlay, and
// the partial usage grid the worker's batch share accumulates into. All of
// it is allocated once per GlobalRoute call (the grids involved are tiny —
// the ~40x40 GCell grid, not the design) and reused across every net and
// batch the worker touches.
type routeScratch struct {
	cellStamp    []int32 // last net to claim each GCell (pin dedup)
	cells        [][2]int
	dec          decScratch
	ctx          routeCtx
	partH, partV []int32 // per-worker usage accumulated during a batch
}

func newRouteScratch(g *Grid) *routeScratch {
	sc := &routeScratch{
		cellStamp: make([]int32, g.nx*g.ny),
		partH:     make([]int32, len(g.hUse)),
		partV:     make([]int32, len(g.vUse)),
	}
	for i := range sc.cellStamp {
		sc.cellStamp[i] = -1
	}
	sc.ctx = routeCtx{
		g:    g,
		ownH: make([]int32, len(g.hUse)), stH: make([]int32, len(g.hUse)),
		ownV: make([]int32, len(g.vUse)), stV: make([]int32, len(g.vUse)),
	}
	for i := range sc.ctx.stH {
		sc.ctx.stH[i] = -1
	}
	for i := range sc.ctx.stV {
		sc.ctx.stV[i] = -1
	}
	return sc
}

// applyPart mirrors Grid.apply into the worker's partial usage grid.
func (sc *routeScratch) applyPart(s segRoute) {
	g := sc.ctx.g
	addH := func(i0, i1, j int) {
		if i0 > i1 {
			i0, i1 = i1, i0
		}
		for i := i0; i < i1; i++ {
			sc.partH[g.hIdx(i, j)]++
		}
	}
	addV := func(j0, j1, i int) {
		if j0 > j1 {
			j0, j1 = j1, j0
		}
		for j := j0; j < j1; j++ {
			sc.partV[g.vIdx(i, j)]++
		}
	}
	if s.hFirst {
		addH(s.i0, s.im, s.j0)
		addV(s.j0, s.j1, s.im)
		addH(s.im, s.i1, s.j1)
	} else {
		addV(s.j0, s.im, s.i0)
		addH(s.i0, s.i1, s.im)
		addV(s.im, s.j1, s.i1)
	}
}

// GlobalRoute routes all nets of a placed design.
//
// The phases and their determinism contract:
//
//  1. Decomposition (parallel): each net's pins are resolved through the
//     netlist.Compact CSR view, deduplicated to GCells with a per-worker
//     generation-stamped bin grid, and split into 2-pin segments over a
//     Steiner tree. Per-net results depend on nothing but the net, and the
//     per-worker segment arenas are concatenated in ascending block order,
//     so the flat segment list is identical at every worker count.
//
//  2. Initial routing (parallel, batched): nets are processed in fixed-size
//     batches (routeBatch). Within a batch every net prices candidates
//     against the grid as it stood when the batch started, plus its own
//     earlier segments (routeCtx overlay); each worker accumulates the usage
//     of the nets it routed into a private partial grid, and the partials
//     are merged into the shared grid in worker order after the batch.
//     The merge is pure integer addition, so the grid state entering the
//     next batch — and hence every routing decision — is independent of how
//     nets were split across workers.
//
//  3. Rip-up and reroute (serial): nets touching overflowed edges are
//     rerouted in net ID order against the live grid, exactly the classic
//     sequential sweep. Congestion relief converges like the serial router;
//     only the (already deterministic) initial state differs.
//
// Wirelength and via totals are integer sums over segments, exact in any
// order, so they are plain serial loops.
func GlobalRoute(d *netlist.Design, opt Options) *Result {
	opt = opt.withDefaults()
	g := newGrid(d.Core, gcellSize(d), opt.CapacityH, opt.CapacityV)
	c := d.Compact()
	workers := par.Workers(opt.Workers)

	var pos netlist.Positions
	pos.Gather(d)

	scratch := make([]*routeScratch, workers)
	for w := range scratch {
		scratch[w] = newRouteScratch(g)
	}

	// Phase 1: pin gather + GCell dedup + Steiner decomposition.
	nNets := len(d.Nets)
	segStart := make([]int32, nNets+1)
	arenas := make([][][4]int, workers)
	par.Blocks(workers, nNets, func(w, lo, hi int) {
		sc := scratch[w]
		var arena [][4]int
		for ni := lo; ni < hi; ni++ {
			cells := sc.cells[:0]
			for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
				i, j := g.Cell(c.PinXY(&pos, k))
				idx := j*g.nx + i
				if sc.cellStamp[idx] == int32(ni) {
					continue
				}
				sc.cellStamp[idx] = int32(ni)
				cells = append(cells, [2]int{i, j})
			}
			sc.cells = cells
			if len(cells) < 2 {
				continue
			}
			pre := len(arena)
			arena = sc.dec.steiner(cells, maxNetPins, arena)
			segStart[ni+1] = int32(len(arena) - pre) //ppalint:ignore i32trunc per-net segment count, bounded by the maxNetPins-capped Steiner decomposition
		}
		arenas[w] = arena
	})
	for i := 0; i < nNets; i++ {
		segStart[i+1] += segStart[i]
	}
	total := int(segStart[nNets])
	flat := make([][4]int, 0, total)
	for _, a := range arenas {
		flat = append(flat, a...)
	}

	// Phase 2: batched initial routing against frozen grid snapshots.
	routed := make([]segRoute, total)
	for b0 := 0; b0 < nNets; b0 += routeBatch {
		b1 := b0 + routeBatch
		if b1 > nNets {
			b1 = nNets
		}
		par.Blocks(workers, b1-b0, func(w, lo, hi int) {
			sc := scratch[w]
			ctx := &sc.ctx
			for ni := b0 + lo; ni < b0+hi; ni++ {
				s0, s1 := segStart[ni], segStart[ni+1]
				if s0 == s1 {
					continue
				}
				ctx.gen = int32(ni)
				for k := s0; k < s1; k++ {
					sp := flat[k]
					s := ctx.route(sp[0], sp[1], sp[2], sp[3])
					routed[k] = s
					ctx.addOwn(s)
					sc.applyPart(s)
				}
			}
		})
		for _, sc := range scratch {
			for i, v := range sc.partH {
				if v != 0 {
					g.hUse[i] += int(v)
					sc.partH[i] = 0
				}
			}
			for i, v := range sc.partV {
				if v != 0 {
					g.vUse[i] += int(v)
					sc.partV[i] = 0
				}
			}
		}
	}

	// Phase 3: serial rip-up and reroute of nets touching overflow.
	for pass := 1; pass < passes; pass++ {
		for ni := 0; ni < nNets; ni++ {
			s0, s1 := segStart[ni], segStart[ni+1]
			if s0 == s1 {
				continue
			}
			touches := false
			for k := s0; k < s1; k++ {
				if g.segmentOverflowed(routed[k]) {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			for k := s0; k < s1; k++ {
				s := routed[k]
				g.apply(s, -1)
				ns := g.route(s.i0, s.j0, s.i1, s.j1)
				g.apply(ns, 1)
				routed[k] = ns
			}
		}
	}

	res := &Result{Grid: g}
	var wl, vias int64
	for _, seg := range routed {
		wl += int64(seg.length())
		vias += int64(seg.bends())
	}
	res.WirelengthUM = float64(wl) * g.size
	res.Vias = int(vias)
	for _, u := range g.hUse {
		if u > g.hCap {
			res.Overflow += u - g.hCap
		}
		if c := float64(u) / float64(g.hCap); c > res.MaxCongestion {
			res.MaxCongestion = c
		}
	}
	for _, u := range g.vUse {
		if u > g.vCap {
			res.Overflow += u - g.vCap
		}
		if c := float64(u) / float64(g.vCap); c > res.MaxCongestion {
			res.MaxCongestion = c
		}
	}
	return res
}

func (g *Grid) segmentOverflowed(s segRoute) bool {
	over := false
	walk := func(kind byte, a0, a1, fixed int) {
		if a0 > a1 {
			a0, a1 = a1, a0
		}
		for a := a0; a < a1 && !over; a++ {
			if kind == 'h' {
				if g.hUse[g.hIdx(a, fixed)] > g.hCap {
					over = true
				}
			} else {
				if g.vUse[g.vIdx(fixed, a)] > g.vCap {
					over = true
				}
			}
		}
	}
	if s.hFirst {
		walk('h', s.i0, s.im, s.j0)
		walk('v', s.j0, s.j1, s.im)
		walk('h', s.im, s.i1, s.j1)
	} else {
		walk('v', s.j0, s.im, s.i0)
		walk('h', s.i0, s.i1, s.im)
		walk('v', s.im, s.j1, s.i1)
	}
	return over
}

func manhattan(a, b [2]int) int {
	return abs(a[0]-b[0]) + abs(a[1]-b[1])
}

// CellCongestion returns the per-GCell congestion (max of the utilizations of
// the edges leaving the cell rightward and upward).
func (g *Grid) CellCongestion() []float64 {
	out := make([]float64, g.nx*g.ny)
	for j := 0; j < g.ny; j++ {
		for i := 0; i < g.nx; i++ {
			var c float64
			if i < g.nx-1 {
				c = math.Max(c, float64(g.hUse[g.hIdx(i, j)])/float64(g.hCap))
			}
			if j < g.ny-1 {
				c = math.Max(c, float64(g.vUse[g.vIdx(i, j)])/float64(g.vCap))
			}
			out[j*g.nx+i] = c
		}
	}
	return out
}

// TopPercentAvg implements Eq. 5: the mean congestion over the top x% most
// congested GCells (x in (0,100]).
func (g *Grid) TopPercentAvg(x float64) float64 {
	cong := g.CellCongestion()
	sort.Sort(sort.Reverse(sort.Float64Slice(cong)))
	n := int(float64(len(cong)) * x / 100)
	if n < 1 {
		n = 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += cong[i]
	}
	return sum / float64(n)
}

// Dims returns the grid dimensions (nx, ny).
func (g *Grid) Dims() (int, int) { return g.nx, g.ny }
