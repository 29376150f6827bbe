package place

import (
	"math"
	"strconv"

	"ppaclust/internal/cluster"
	"ppaclust/internal/netlist"
)

// Multigrid-style warm start: instead of dropping 10^5-10^6 cells at the
// core center and letting CG untangle them, coarse-place the MultilevelFC
// cluster hierarchy (a few thousand variables), interpolate cluster
// positions down to the member cells, and let the fine solves refine from an
// already-spread state. Clustering and the spiral interpolation are
// sequential and the coarse quadratic solve is a Global run, so the warm
// start preserves the placer's determinism contract.

// coarseInitMinCells is the movable-cell count at which the auto mode turns
// the warm start on. Below it the flat solve converges in a handful of
// rounds and the clustering pass would dominate the runtime.
const coarseInitMinCells = 200000

// coarseInitMaxClusters caps the coarse problem size; coarseInitCellsPer
// sets the target cells-per-cluster ratio.
const (
	coarseInitMaxClusters = 4096
	coarseInitMinClusters = 64
	coarseInitCellsPer    = 128
)

// useCoarseInit is the placer's whole solver policy: every axis solve is
// Jacobi-PCG, and from-scratch, region-free runs with at least
// coarseInitMinCells movable cells warm-start from the cluster hierarchy
// first. Regions are excluded: the coarse model has no per-cell region
// notion, and region runs are incremental-style refinements anyway.
func (p *placer) useCoarseInit() bool {
	if p.opt.coarseInit != 0 {
		return p.opt.coarseInit > 0
	}
	return !p.opt.Incremental && p.opt.Regions == nil &&
		len(p.movable) >= coarseInitMinCells
}

// coarseInit overwrites the initial positions (and first-round spreading
// anchors) with the interpolated coarse placement. On any degenerate input
// (clustering collapses, contraction fails) it leaves the center-seeded
// positions from initPositions untouched.
func (p *placer) coarseInit() {
	d := p.d
	k := len(p.movable) / coarseInitCellsPer
	if k < coarseInitMinClusters {
		k = coarseInitMinClusters
	}
	if k > coarseInitMaxClusters {
		k = coarseInitMaxClusters
	}
	if len(d.Insts) <= 2*k {
		return
	}
	hv := d.ToHypergraph()
	cres := cluster.MultilevelFC(hv.H, cluster.Options{
		TargetClusters: k,
		Seed:           p.opt.Seed,
	})
	con, err := hv.H.Contract(cres.Assign)
	if err != nil || con.Coarse.NumVertices() < 2 {
		return
	}
	coarse := con.Coarse
	nc := coarse.NumVertices()

	// Gather per-cluster movable members (variable indices, ascending
	// instance ID) and fixed-member area/centroid accumulators.
	memberStart := make([]int32, nc+1)
	for _, id := range p.movable {
		memberStart[con.VertexMap[id]+1]++
	}
	for c := 0; c < nc; c++ {
		memberStart[c+1] += memberStart[c]
	}
	members := make([]int32, len(p.movable))
	fill := make([]int32, nc)
	copy(fill, memberStart[:nc])
	for vi, id := range p.movable {
		c := con.VertexMap[id]
		members[fill[c]] = int32(vi)
		fill[c]++
	}
	fixedArea := make([]float64, nc)
	fixedCX := make([]float64, nc)
	fixedCY := make([]float64, nc)
	for _, inst := range d.Insts {
		if !inst.Fixed {
			continue
		}
		c := con.VertexMap[inst.ID]
		a := inst.Master.Area()
		if a <= 0 {
			a = 1
		}
		fixedArea[c] += a
		fixedCX[c] += a * inst.CenterX()
		fixedCY[c] += a * inst.CenterY()
	}

	// Synthetic coarse design: one square cell per cluster (side sqrt of the
	// summed member area), one net per coarse hyperedge. Pins resolve to the
	// cell center (no master pins), matching the placer's cell-center model.
	lib := netlist.NewLibrary(d.Name + "_coarse_lib")
	cd := netlist.NewDesignSized(d.Name+"_coarse", lib, nc, coarse.NumEdges())
	cd.Core = p.core
	maxSide := math.Min(p.core.W(), p.core.H()) / 2
	for c := 0; c < nc; c++ {
		side := math.Sqrt(coarse.VertexWeight(c))
		if side <= 0 {
			side = 1e-3
		}
		if side > maxSide {
			side = maxSide
		}
		m := &netlist.Master{
			Name:   "cm" + strconv.Itoa(c),
			Class:  netlist.ClassCore,
			Width:  side,
			Height: side,
		}
		if lib.AddMaster(m) != nil {
			return
		}
		inst, err := cd.AddInstance("c"+strconv.Itoa(c), m)
		if err != nil {
			return
		}
		if fixedArea[c] > 0 {
			// A cluster holding fixed cells is pinned at their area-weighted
			// centroid so it anchors its neighborhood, as the fixed cells
			// anchor the fine problem.
			inst.Fixed = true
			inst.Placed = true
			inst.X = fixedCX[c]/fixedArea[c] - side/2
			inst.Y = fixedCY[c]/fixedArea[c] - side/2
		}
	}
	for e := 0; e < coarse.NumEdges(); e++ {
		net, err := cd.AddNet("n" + strconv.Itoa(e))
		if err != nil {
			return
		}
		net.Weight = coarse.EdgeWeight(e)
		for _, v := range coarse.Edge(e) {
			cd.Connect(net, netlist.PinRef{Inst: v, Pin: "p"})
		}
	}

	// coarseInit: -1 ends the recursion here. The cluster count is a target,
	// not a bound — MultilevelFC stops on no progress and never merges
	// singletons — so a sparsely connected design can hand back a coarse
	// design that is itself above coarseInitMinCells.
	cres2 := Global(cd, Options{
		Iterations: p.opt.Iterations,
		Seed:       p.opt.Seed,
		Workers:    p.opt.Workers,
		noStall:    true,
		coarseInit: -1,
	})
	p.cgIters += cres2.CGIterations

	// Interpolate: members fan out on a golden-angle spiral inside their
	// cluster's footprint, deterministically by member rank. The spiral
	// spreads area roughly uniformly, so the first spreading round starts
	// from low local overlap.
	const goldenAngle = 2.39996322972865332 // pi * (3 - sqrt(5))
	for c := 0; c < nc; c++ {
		lo, hi := memberStart[c], memberStart[c+1]
		if lo == hi {
			continue
		}
		ci := cd.Insts[c]
		cx, cy := ci.CenterX(), ci.CenterY()
		radius := ci.Master.Width / 2
		m := float64(hi - lo)
		for i := lo; i < hi; i++ {
			vi := members[i]
			rank := float64(i - lo)
			r := radius * math.Sqrt((rank+0.5)/m)
			theta := goldenAngle * rank
			p.x[vi] = clamp(cx+r*math.Cos(theta), p.core.X0+p.w[vi]/2, p.core.X1-p.w[vi]/2)
			p.y[vi] = clamp(cy+r*math.Sin(theta), p.core.Y0+p.h[vi]/2, p.core.Y1-p.h[vi]/2)
			p.anchX[vi], p.anchY[vi] = p.x[vi], p.y[vi]
		}
	}
}
