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
	// Capacity is the routing track capacity of every GCell edge, in both
	// directions. Default 10.
	Capacity int
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
	if o.Capacity <= 0 {
		o.Capacity = 10
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
	core     netlist.Rect
	nx, ny   int
	size     float64
	use      []int // per-edge usage: horizontal edges at hIdx, then vertical at vIdx
	capacity int   // tracks per edge, both directions
}

// newGrid builds an empty routing grid over the core.
func newGrid(core netlist.Rect, size float64, capacity int) *Grid {
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
		use:      make([]int, (nx-1)*ny+nx*(ny-1)),
		capacity: capacity,
	}
}

// cell maps a physical position to GCell coordinates.
func (g *Grid) cell(x, y float64) (int, int) {
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

// hIdx is the index of edge (i,j)->(i+1,j), vIdx that of (i,j)->(i,j+1).
func (g *Grid) hIdx(i, j int) int { return j*(g.nx-1) + i }
func (g *Grid) vIdx(i, j int) int { return (g.nx-1)*g.ny + j*g.nx + i }

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

// segRoute is one routed 2-pin connection: an optional Z with two bends.
// Path: (i0,j0) -> (im,j0) -> (im,j1) -> (i1,j1) horizontally-first, or the
// vertical-first mirror.
type segRoute struct {
	i0, j0, i1, j1 int
	im             int  // intermediate column (hFirst) or row (!hFirst)
	hFirst         bool // horizontal-vertical-horizontal vs V-H-V
}

// run is a straight stretch of a segment: n edges from first, stride apart.
type run struct{ first, stride, n int }

// runs fills rs with a segment's three stretches in path order: horizontal
// from its lower column, stride 1; vertical from its lower row, stride nx.
// In place, per element: a stack copy of the array cost ~15 % at 100k cells.
func (g *Grid) runs(s segRoute, rs *[3]run) {
	h := func(a, b, j int) run { return run{g.hIdx(min(a, b), j), 1, abs(b - a)} }
	v := func(a, b, i int) run { return run{g.vIdx(i, min(a, b)), g.nx, abs(b - a)} }
	if s.hFirst {
		rs[0], rs[1], rs[2] = h(s.i0, s.im, s.j0), v(s.j0, s.j1, s.im), h(s.im, s.i1, s.j1)
	} else {
		rs[0], rs[1], rs[2] = v(s.j0, s.im, s.i0), h(s.i0, s.i1, s.im), v(s.im, s.j1, s.i1)
	}
}

func (g *Grid) apply(s segRoute, delta int) {
	var rs [3]run
	g.runs(s, &rs)
	for _, r := range &rs {
		for k, e := 0, r.first; k < r.n; k, e = k+1, e+r.stride {
			g.use[e] += delta
		}
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
	g   *Grid
	own []int32 // own-usage counts per edge, valid where st matches gen
	st  []int32
	gen int32
}

// useOf is edge e's usage as the ctx sees it.
func (c *routeCtx) useOf(e int) int {
	u := c.g.use[e]
	if c.st != nil && c.st[e] == c.gen {
		u += int(c.own[e])
	}
	return u
}

// addOwn records a segment into the overlay.
func (c *routeCtx) addOwn(s segRoute) {
	var rs [3]run
	c.g.runs(s, &rs)
	for _, r := range &rs {
		for k, e := 0, r.first; k < r.n; k, e = k+1, e+r.stride {
			if c.st[e] != c.gen {
				c.st[e] = c.gen
				c.own[e] = 0
			}
			c.own[e]++
		}
	}
}

// cost prices a segment: each run sums its edges in ascending order into its
// own partial, and the partials are added last; ties between candidates hang
// on that association.
func (c *routeCtx) cost(s segRoute) float64 {
	var rs [3]run
	var part [3]float64
	c.g.runs(s, &rs)
	for p, r := range &rs {
		for k, e := 0, r.first; k < r.n; k, e = k+1, e+r.stride {
			part[p] += edgeCost(c.useOf(e), c.g.capacity)
		}
	}
	return part[0] + part[1] + part[2]
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
	cellStamp []int32 // last net to claim each GCell (pin dedup)
	cells     [][2]int
	dec       decScratch
	ctx       routeCtx
	part      []int32 // per-worker usage accumulated during a batch
}

func newRouteScratch(g *Grid) *routeScratch {
	sc := &routeScratch{
		cellStamp: make([]int32, g.nx*g.ny),
		part:      make([]int32, len(g.use)),
		ctx:       routeCtx{g: g, own: make([]int32, len(g.use)), st: make([]int32, len(g.use))},
	}
	for i := range sc.cellStamp {
		sc.cellStamp[i] = -1
	}
	for i := range sc.ctx.st {
		sc.ctx.st[i] = -1
	}
	return sc
}

// applyPart mirrors Grid.apply into the worker's partial usage grid.
func (sc *routeScratch) applyPart(s segRoute) {
	var rs [3]run
	sc.ctx.g.runs(s, &rs)
	for _, r := range &rs {
		for k, e := 0, r.first; k < r.n; k, e = k+1, e+r.stride {
			sc.part[e]++
		}
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
	g := newGrid(d.Core, gcellSize(d), opt.Capacity)
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
				i, j := g.cell(c.PinXY(&pos, k))
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
			for e, v := range sc.part {
				if v != 0 {
					g.use[e] += int(v)
					sc.part[e] = 0
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
	for _, u := range g.use {
		if u > g.capacity {
			res.Overflow += u - g.capacity
		}
		if c := float64(u) / float64(g.capacity); c > res.MaxCongestion {
			res.MaxCongestion = c
		}
	}
	return res
}

func (g *Grid) segmentOverflowed(s segRoute) bool {
	var rs [3]run
	g.runs(s, &rs)
	for _, r := range &rs {
		for k, e := 0, r.first; k < r.n; k, e = k+1, e+r.stride {
			if g.use[e] > g.capacity {
				return true
			}
		}
	}
	return false
}

func manhattan(a, b [2]int) int {
	return abs(a[0]-b[0]) + abs(a[1]-b[1])
}

// cellCongestion returns the per-GCell congestion (max of the utilizations of
// the edges leaving the cell rightward and upward).
func (g *Grid) cellCongestion() []float64 {
	out := make([]float64, g.nx*g.ny)
	for j := 0; j < g.ny; j++ {
		for i := 0; i < g.nx; i++ {
			var c float64
			if i < g.nx-1 {
				c = math.Max(c, float64(g.use[g.hIdx(i, j)])/float64(g.capacity))
			}
			if j < g.ny-1 {
				c = math.Max(c, float64(g.use[g.vIdx(i, j)])/float64(g.capacity))
			}
			out[j*g.nx+i] = c
		}
	}
	return out
}

// TopPercentAvg implements Eq. 5: the mean congestion over the top x% most
// congested GCells (x in (0,100]).
func (g *Grid) TopPercentAvg(x float64) float64 {
	cong := g.cellCongestion()
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
