// Package place is the reproduction's global placer, standing in for
// RePlAce/OpenROAD gpl and the Innovus placer. It is a quadratic placer:
// a bound-to-bound (B2B) net model is solved per axis with Jacobi-
// preconditioned conjugate gradient, interleaved with capacity-bisection
// spreading anchored through pseudo-nets. From-scratch runs on
// large designs warm-start from a cluster-hierarchy coarse placement
// (multigrid style; see multigrid.go). It supports the two modes the
// paper's flow requires: from-scratch placement of (clustered) netlists, and
// incremental placement seeded from initial positions (Algorithm 1 lines
// 15-25), optionally under per-instance region constraints (Innovus mode).
// A Tetris-style legalizer snaps cells to rows/sites.
//
// The hot paths run on the netlist's Compact CSR view: system assembly walks
// flat pin arrays (variable index or precomputed constant coordinate per
// pin) instead of *Net/*Instance pointers and port-name map lookups, and all
// solver scratch — the one-worker assembly's pin and spring buffers included
// — lives on the placer, allocated once per run, so per-iteration work is
// allocation-free in steady state.
package place

import (
	"math"
	"math/rand"

	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/sortx"
	"ppaclust/internal/sta"
)

// Options configures a placement run.
type Options struct {
	// Iterations is the number of solve+spread rounds. Default 24 (12 when
	// Incremental).
	Iterations int
	// Incremental starts from the instances' current positions and anchors
	// to them instead of starting at the core center.
	Incremental bool
	// AnchorWeight scales the seed anchors in incremental mode. Default 0.03.
	AnchorWeight float64
	// Regions constrains instances (by ID) to rectangles; cells are clamped
	// into their region after every round.
	Regions map[int]netlist.Rect
	// SoftRegions makes regions guide instead of confine: spreading anchors
	// are clamped into the region but final positions may spill out. This
	// models Innovus-style region constraints that are removed after
	// incremental placement (Algorithm 1 line 20).
	SoftRegions bool
	// RegionIterations bounds how many initial rounds the regions steer
	// (0 = all rounds). Small values give brief guidance then free
	// refinement — the "run incremental placement, remove constraints"
	// recipe.
	RegionIterations int
	// Seed jitters the initial placement deterministically.
	Seed int64
	// Legalize snaps cells to rows and sites after global placement.
	Legalize bool
	// Workers bounds the goroutines used by net assembly, the CG matvec and
	// density evaluation: 0 = auto (PPACLUST_WORKERS, else GOMAXPROCS), 1 =
	// exact sequential path. All parallel paths reduce in fixed order, so the
	// placement is bit-identical for every worker count.
	Workers int
	// TimingDriven enables STA feedback at the overflow checkpoints: the
	// incremental analyzer runs on the current coordinates, nets are ranked
	// by worst slack, and the most critical timingNetsPercent get their B2B
	// weights multiplied (capped at netWeightMax times the original weight).
	// Off by default. See driven.go.
	TimingDriven bool
	// TimingCons are the constraints the checkpoint STA runs under. Only
	// read when TimingDriven is set.
	TimingCons sta.Constraints
	// RoutabilityDriven enables congestion feedback at the overflow
	// checkpoints: the GCell router runs on a coarse grid and movable cells
	// in congested GCells have their spreading areas inflated so the next
	// rounds push them apart. Off by default. See driven.go.
	RoutabilityDriven bool
	// noStall disables the overflow-stagnation stop. Only the coarse
	// warm-start recursion sets it: the coarse model's huge cluster-cells
	// floor its quantized overflow immediately, yet the later rounds keep
	// improving the positions the fine problem interpolates from, and the
	// coarse solve is too cheap for early exit to matter.
	noStall bool
	// coarseInit overrides useCoarseInit's size policy: 0 = auto, 1 = force
	// the warm start on (tests, to exercise it on small designs), -1 = force
	// it off (the warm-start recursion's coarse solve, so the recursion
	// terminates at depth 1 whatever the clustering returned).
	coarseInit int
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		if o.Incremental {
			o.Iterations = 12
		} else {
			o.Iterations = 24
		}
	}
	if o.AnchorWeight <= 0 {
		o.AnchorWeight = 0.03
	}
	return o
}

// targetDensityOf is the per-bin density ceiling spreading works to:
// max(0.75, utilization*1.15), clamped to 1.
func targetDensityOf(d *netlist.Design) float64 {
	u := d.Utilization() * 1.15
	if u < 0.75 {
		u = 0.75
	}
	if u > 1 {
		u = 1
	}
	return u
}

const (
	// cgMaxIters bounds the conjugate-gradient iterations per solve.
	cgMaxIters = 50
	// spreadWeight scales the spreading pseudo-net weights.
	spreadWeight = 0.18
	// overflowStop ends the rounds early once bin overflow drops below
	// this fraction.
	overflowStop = 0.12
)

// cgRelTol is the relative preconditioned-residual reduction at which a CG
// solve stops early: rz <= cgRelTol^2 * rz0 corresponds to a cgRelTol drop
// of the preconditioned residual norm. The placer interleaves solves with
// spreading, so squeezing the last digits out of an intermediate solve buys
// nothing — this cuts iterations sharply once warm starts get good.
const cgRelTol = 1e-5

// Overflow stagnation cut. The density grid quantizes overflow: with n x n
// bins over nCells cells (n ~ sqrt(nCells/4), clamped to [4,128]), a small
// design's overflow floor can sit well above overflowStop — at 10k cells the
// 52x52 grid floors near 0.196 and the overflowStop exit never fires,
// so the loop used to burn all 24 rounds grinding an already-converged
// placement. Instead, once past the mandatory two rounds, stop after the
// overflow has failed to beat its best value by more than
// overflowStallRelImprove for overflowStallRounds consecutive rounds.
const (
	overflowStallRelImprove = 0.01
	overflowStallRounds     = 3
)

// Result reports the outcome of a placement run.
type Result struct {
	HPWL       float64
	Iterations int
	// Overflow is the bin overflow fraction of the placement the caller
	// actually gets: re-measured from the committed instance positions and
	// physical cell areas after legalization (and after any inflation), not
	// the last loop iterate.
	Overflow float64
	// CGIterations is the total conjugate-gradient iterations spent across
	// all axis solves (including the coarse warm-start solve, if any).
	CGIterations int
	// TimingReweights and RouteInflations count the feedback checkpoints
	// that actually changed net weights / cell areas (see driven.go).
	TimingReweights int
	RouteInflations int
}

type placer struct {
	d       *netlist.Design
	opt     Options
	core    netlist.Rect
	workers int

	movable []int // instance IDs of movable cells
	varOf   []int // instance ID -> variable index, -1 if fixed
	x, y    []float64
	w, h    []float64 // cell dims per variable
	area    []float64 // spreading area per variable: w*h, scaled by inflation

	// Flat connectivity snapshot for system assembly, derived from the
	// design's Compact view at collect time. Fixed instances and ports do
	// not move during a run, so their pin coordinates are constants.
	cm         *netlist.Compact
	pinVar     []int32   // per compact pin: variable index, or -1 (constant)
	pinCX      []float64 // per compact pin: x coordinate when constant
	pinCY      []float64 // per compact pin: y coordinate when constant
	netW       []float64 // per net: weight
	activeNets []int32   // nets with 2..maxNetPins pins, ascending

	// per-axis linear system accumulators. addSpring assembles into the
	// per-row off lists; flattenSystem mirrors them into the offStart/offEnt
	// CSR the CG matvec runs on: one interleaved 8-byte {col, weight} record
	// per entry, half the stream of separate int32/float64 arrays. Weights
	// are stored float32 — a ~1e-7 relative rounding, orders of magnitude
	// below the solve tolerance — and both records of a symmetric pair round
	// identically, so the operator stays symmetric.
	diag     []float64
	rhs      []float64
	off      [][]sparseEntry
	offStart []int32
	offEnt   []csrEnt
	nnzCap   int       // offEnt capacity bound: 2 entries x at most 2(P-1) springs per active P-pin net
	invDiag  []float64 // 1/diag (0 where diag <= 0), the Jacobi preconditioner
	bins     *binGrid
	anchX    []float64 // spreading targets
	anchY    []float64
	seedX    []float64 // incremental seed positions
	seedY    []float64

	// solver and spreading scratch, allocated once per run
	cgX, cgAx, cgR, cgD []float64
	byX, byY, partBuf   []int32      // bisection orderings + partition scratch
	sorter              sortx.Sorter // shared radix-sort scratch
	sideLo              []bool       // bisection membership marks
	cgIters             int

	netActs [][]springAction // per-net spring actions (parallel assembly)
	pins    []pinc           // one-worker assembly scratch (appendNetSprings)
	acts    []springAction   // one-worker assembly scratch (appendNetSprings)
	binIdx  []int32          // per-cell bin index (parallel density pass)

	// timing/routability feedback state (driven.go)
	ckptNext   int           // next checkpointOverflows index to fire
	an         *sta.Analyzer // built lazily at the first timing checkpoint
	slackBuf   []float64     // NetSlackInto scratch
	netW0      []float64     // pre-reweight net weights (netWeightMax base)
	critBuf    []int32       // candidate net scratch for criticality ranking
	reweights  int
	inflations int
}

// maxNetPins is the pin-count ceiling above which a net is excluded from the
// B2B model (huge nets carry no locality information and would produce dense
// rows).
const maxNetPins = 2000

// springAction is one deferred addSpring call; per-net action lists are
// computed in parallel and then applied sequentially in net order, which
// reproduces the sequential assembly bit for bit.
type springAction struct {
	vi, vj int
	ci, cj float64
	w      float64
}

type sparseEntry struct {
	col int
	w   float64
}

// Global runs global placement on the design and writes final positions
// into the instances.
func Global(d *netlist.Design, opt Options) Result {
	opt = opt.withDefaults()
	p := &placer{d: d, opt: opt, core: d.Core, workers: par.Workers(opt.Workers)}
	p.collect()
	if len(p.movable) == 0 {
		return Result{HPWL: d.HPWL()}
	}
	p.initPositions()
	if p.useCoarseInit() {
		p.coarseInit()
	}

	iter := 0
	overflow := 1.0
	best := math.Inf(1)
	stall := 0
	for ; iter < opt.Iterations; iter++ {
		if opt.RegionIterations > 0 && iter == opt.RegionIterations {
			p.opt.Regions = nil // constraints removed after the guided phase
		}
		spreadW := spreadWeight * math.Sqrt(float64(iter))
		p.solveAxis(true, spreadW)
		p.solveAxis(false, spreadW)
		p.clampAll()
		overflow = p.computeSpreadTargets()
		if p.checkpoint(overflow) {
			// A feedback checkpoint changed net weights or cell areas; give
			// the loop fresh rounds to absorb it before any stagnation cut
			// or early exit. The reset is a pure function of the overflow
			// sequence, so it is bit-identical across worker counts.
			best = math.Inf(1)
			stall = 0
			continue
		}
		if overflow < overflowStop && iter >= 2 {
			iter++
			break
		}
		// Overflow has a floor set by the bin quantization (see DESIGN.md):
		// a small design on a coarse grid can sit above overflowStop forever.
		// Stop once overflow fails to improve on its best by >1% for three
		// consecutive rounds — pure function of the overflow sequence, so the
		// cut is bit-identical across worker counts.
		if overflow < best*(1-overflowStallRelImprove) {
			best = overflow
			stall = 0
		} else if iter >= 2 && !opt.noStall {
			stall++
			if stall >= overflowStallRounds {
				iter++
				break
			}
		}
	}
	p.writeBack()
	if opt.Legalize {
		Legalize(d)
	}
	return Result{
		HPWL:            d.HPWLWorkers(p.workers),
		Iterations:      iter,
		Overflow:        p.finalOverflow(),
		CGIterations:    p.cgIters,
		TimingReweights: p.reweights,
		RouteInflations: p.inflations,
	}
}

// finalOverflow re-measures bin overflow from the committed instance
// positions and physical master areas. The loop-iterate overflow describes
// pre-legalization coordinates and inflation-scaled areas; Result.Overflow
// must describe the placement the caller actually gets. The bin lookups fan
// out into per-cell slots and the deposits accumulate sequentially in
// movable order, so the measurement is bit-identical at any worker count.
func (p *placer) finalOverflow() float64 {
	g := p.bins
	g.clear()
	d := p.d
	if p.workers > 1 {
		if p.binIdx == nil {
			p.binIdx = make([]int32, len(p.movable))
		}
		par.ForEach(p.workers, len(p.movable), func(k int) {
			inst := d.Insts[p.movable[k]]
			i, j := g.index(inst.CenterX(), inst.CenterY())
			p.binIdx[k] = int32(j*g.nx + i)
		})
		for k, id := range p.movable {
			m := d.Insts[id].Master
			g.area[p.binIdx[k]] += m.Width * m.Height
		}
	} else {
		for _, id := range p.movable {
			inst := d.Insts[id]
			g.deposit(inst.CenterX(), inst.CenterY(), inst.Master.Width*inst.Master.Height)
		}
	}
	return g.overflow()
}

func (p *placer) collect() {
	d := p.d
	p.varOf = make([]int, len(d.Insts))
	for i := range p.varOf {
		p.varOf[i] = -1
	}
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		p.varOf[inst.ID] = len(p.movable)
		p.movable = append(p.movable, inst.ID)
	}
	n := len(p.movable)
	p.x = make([]float64, n)
	p.y = make([]float64, n)
	p.w = make([]float64, n)
	p.h = make([]float64, n)
	p.anchX = make([]float64, n)
	p.anchY = make([]float64, n)
	p.seedX = make([]float64, n)
	p.seedY = make([]float64, n)
	p.area = make([]float64, n)
	for vi, id := range p.movable {
		m := d.Insts[id].Master
		p.w[vi] = m.Width
		p.h[vi] = m.Height
		p.area[vi] = m.Width * m.Height
	}
	p.diag = make([]float64, n)
	p.rhs = make([]float64, n)
	p.off = make([][]sparseEntry, n)
	p.offStart = make([]int32, n+1)
	p.invDiag = make([]float64, n)
	p.cgX = make([]float64, n)
	p.cgAx = make([]float64, n)
	p.cgR = make([]float64, n)
	p.cgD = make([]float64, n)
	p.byX = make([]int32, n)
	p.byY = make([]int32, n)
	p.partBuf = make([]int32, n)
	p.sideLo = make([]bool, n)
	p.bins = newBinGrid(p.core, n, targetDensityOf(d))
	// Fixed macro area reduces bin capacity.
	for _, inst := range d.Insts {
		if inst.Fixed && inst.Master.Class == netlist.ClassMacro {
			p.bins.blockArea(inst.X, inst.Y, inst.Master.Width, inst.Master.Height)
		}
	}
	p.snapshotConnectivity()
}

// snapshotConnectivity resolves every compact pin to either a variable index
// or a constant axis coordinate, so assembly never touches a pointer or a
// map. It mirrors the coordinate rules of the former pointer walk: a port
// pin sits at the port (an unknown port at (0,0)); a fixed instance pin sits
// at the cell center; a movable instance pin tracks the cell-center
// variable.
func (p *placer) snapshotConnectivity() {
	d := p.d
	cm := d.Compact()
	p.cm = cm
	nPins := len(cm.PinInst)
	p.pinVar = make([]int32, nPins)
	p.pinCX = make([]float64, nPins)
	p.pinCY = make([]float64, nPins)
	for k := 0; k < nPins; k++ {
		id := cm.PinInst[k]
		switch {
		case id == netlist.CompactNoPort:
			p.pinVar[k] = -1
		case id < 0:
			port := d.Ports[-1-id]
			p.pinVar[k] = -1
			p.pinCX[k] = port.X
			p.pinCY[k] = port.Y
		default:
			inst := d.Insts[id]
			if vi := p.varOf[id]; vi >= 0 {
				p.pinVar[k] = int32(vi)
			} else {
				p.pinVar[k] = -1
				p.pinCX[k] = inst.CenterX()
				p.pinCY[k] = inst.CenterY()
			}
		}
	}
	p.netW = make([]float64, len(d.Nets))
	p.activeNets = make([]int32, 0, len(d.Nets))
	for ni, net := range d.Nets {
		p.netW[ni] = net.Weight
		if pc := cm.NumNetPins(ni); pc >= 2 && pc <= maxNetPins {
			p.activeNets = append(p.activeNets, int32(ni))
			p.nnzCap += 4 * (pc - 1)
		}
	}
}

func (p *placer) initPositions() {
	d := p.d
	rng := rand.New(rand.NewSource(p.opt.Seed + 17))
	cx := (p.core.X0 + p.core.X1) / 2
	cy := (p.core.Y0 + p.core.Y1) / 2
	for vi, id := range p.movable {
		inst := d.Insts[id]
		if p.opt.Incremental && inst.Placed {
			p.x[vi] = inst.CenterX()
			p.y[vi] = inst.CenterY()
		} else {
			p.x[vi] = cx + (rng.Float64()-0.5)*p.core.W()*0.05
			p.y[vi] = cy + (rng.Float64()-0.5)*p.core.H()*0.05
		}
		p.anchX[vi], p.anchY[vi] = p.x[vi], p.y[vi]
		p.seedX[vi], p.seedY[vi] = p.x[vi], p.y[vi]
	}
}

// solveAxis builds the B2B system for one axis and solves it with CG. With
// workers > 1, per-net spring actions are computed in parallel against the
// frozen positions and then applied sequentially in net order — the same
// accumulation order as the sequential assembly, hence bit-identical.
func (p *placer) solveAxis(xAxis bool, spreadW float64) {
	n := len(p.movable)
	for i := 0; i < n; i++ {
		p.diag[i] = 0
		p.rhs[i] = 0
		p.off[i] = p.off[i][:0]
	}
	if p.workers > 1 {
		if p.netActs == nil {
			p.netActs = make([][]springAction, len(p.activeNets))
		}
		par.Blocks(p.workers, len(p.activeNets), func(w, lo, hi int) {
			var pins []pinc
			for ai := lo; ai < hi; ai++ {
				pins, p.netActs[ai] = p.appendNetSprings(int(p.activeNets[ai]), xAxis, pins, p.netActs[ai][:0])
			}
		})
		for ai := range p.activeNets {
			for _, a := range p.netActs[ai] {
				p.addSpring(a.vi, a.vj, a.ci, a.cj, a.w)
			}
		}
	} else {
		for _, ni := range p.activeNets {
			p.pins, p.acts = p.appendNetSprings(int(ni), xAxis, p.pins, p.acts[:0])
			for _, a := range p.acts {
				p.addSpring(a.vi, a.vj, a.ci, a.cj, a.w)
			}
		}
	}
	// Spreading anchors (toward the bisection upper-bound placement) and,
	// in incremental mode, seed anchors (toward the initial positions).
	for vi := 0; vi < n; vi++ {
		var spreadT, seedT float64
		if xAxis {
			spreadT, seedT = p.anchX[vi], p.seedX[vi]
		} else {
			spreadT, seedT = p.anchY[vi], p.seedY[vi]
		}
		if spreadW > 0 {
			p.diag[vi] += spreadW
			p.rhs[vi] += spreadW * spreadT
		}
		if p.opt.Incremental {
			p.diag[vi] += p.opt.AnchorWeight
			p.rhs[vi] += p.opt.AnchorWeight * seedT
		}
	}
	p.flattenSystem()
	sol := p.cg(xAxis)
	if xAxis {
		copy(p.x, sol)
	} else {
		copy(p.y, sol)
	}
}

// flattenSystem mirrors the per-row off lists into the flat CSR arrays and
// precomputes the Jacobi reciprocals. Row order and within-row entry order
// are preserved, so the flat matvec accumulates in exactly the order the
// per-row walk did.
func (p *placer) flattenSystem() {
	n := len(p.movable)
	nnz := 0
	for i := 0; i < n; i++ {
		nnz += len(p.off[i])
	}
	if cap(p.offEnt) < nnz {
		p.offEnt = make([]csrEnt, nnz, p.nnzCap)
	}
	p.offEnt = p.offEnt[:nnz]
	k := 0
	for i := 0; i < n; i++ {
		p.offStart[i] = int32(k)
		for _, e := range p.off[i] {
			p.offEnt[k] = csrEnt{int32(e.col), e.w}
			k++
		}
	}
	p.offStart[n] = int32(k)
	for i := 0; i < n; i++ {
		p.invDiag[i] = 0
		if p.diag[i] > 0 {
			p.invDiag[i] = 1 / p.diag[i]
		}
	}
}

// pinc is one net pin projected onto the active axis.
type pinc struct {
	c  float64
	vi int
}

// appendNetSprings computes the B2B spring actions of one net against the
// current (frozen) positions, reading the flat pin snapshot. It only reads
// placer state, so calls for different nets may run concurrently. pins is a
// reusable scratch buffer.
func (p *placer) appendNetSprings(ni int, xAxis bool, pins []pinc,
	out []springAction) ([]pinc, []springAction) {

	lo, hi := p.cm.NetStart[ni], p.cm.NetStart[ni+1]
	pos, fix := p.x, p.pinCX
	if !xAxis {
		pos, fix = p.y, p.pinCY
	}
	pins = pins[:0]
	minI, maxI := 0, 0
	for k := lo; k < hi; k++ {
		vi := int(p.pinVar[k])
		c := fix[k]
		if vi >= 0 {
			c = pos[vi]
		}
		pins = append(pins, pinc{c, vi})
		if c < pins[minI].c {
			minI = len(pins) - 1
		}
		if c > pins[maxI].c {
			maxI = len(pins) - 1
		}
	}
	P := len(pins)
	if P < 2 {
		return pins, out
	}
	wNet := p.netW[ni]
	// B2B: connect every pin to both boundary pins.
	for _, bi := range [2]int{minI, maxI} {
		b := pins[bi]
		for i, q := range pins {
			if i == bi || (bi == maxI && i == minI) {
				continue
			}
			dist := math.Abs(q.c - b.c)
			if dist < 1e-3 {
				dist = 1e-3
			}
			w := wNet * 2 / (float64(P-1) * dist)
			out = append(out, springAction{q.vi, b.vi, q.c, b.c, w})
		}
	}
	return pins, out
}

// addSpring adds a two-point quadratic term w*(a-b)^2 where each endpoint is
// a variable (vi >= 0) or a constant coordinate.
func (p *placer) addSpring(vi, vj int, ci, cj float64, w float64) {
	switch {
	case vi >= 0 && vj >= 0:
		if vi == vj {
			return
		}
		p.diag[vi] += w
		p.diag[vj] += w
		p.off[vi] = append(p.off[vi], sparseEntry{vj, w})
		p.off[vj] = append(p.off[vj], sparseEntry{vi, w})
	case vi >= 0:
		p.diag[vi] += w
		p.rhs[vi] += w * cj
	case vj >= 0:
		p.diag[vj] += w
		p.rhs[vj] += w * ci
	}
}

// cg solves (D - O) x = rhs with Jacobi-preconditioned conjugate gradient,
// warm-started from the current positions. Work vectors live on the placer
// and are reused across solves; the returned slice is p.cgX, valid until the
// next call. Solves stop at cgMaxIters, at an absolute residual floor, or
// once the preconditioned residual norm drops below cgRelTol times the
// right-hand side's — the textbook relative criterion, which lets
// warm-started solves (coarse-init refinement, incremental mode) exit after
// a handful of iterations.
func (p *placer) cg(xAxis bool) []float64 {
	n := len(p.movable)
	x := p.cgX
	if xAxis {
		copy(x, p.x)
	} else {
		copy(x, p.y)
	}
	ax := p.cgAx
	r := p.cgR
	d := p.cgD
	rhs := p.rhs
	iv := p.invDiag
	p.mulA(x, ax)
	var rz, bz float64
	for i := 0; i < n; i++ {
		ri := rhs[i] - ax[i]
		r[i] = ri
		d[i] = ri * iv[i]
		rz += ri * (ri * iv[i])
		bz += rhs[i] * rhs[i] * iv[i]
	}
	floor := cgRelTol * cgRelTol * bz
	if floor < 1e-20 {
		floor = 1e-20
	}
	it := 0
	for ; it < cgMaxIters && rz > floor; it++ {
		dad := p.mulADot(d, ax)
		if dad <= 0 {
			break
		}
		alpha := rz / dad
		var rzNew float64
		for i := 0; i < n; i++ {
			x[i] += alpha * d[i]
			ri := r[i] - alpha*ax[i]
			r[i] = ri
			rzNew += ri * (ri * iv[i])
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			d[i] = r[i]*iv[i] + beta*d[i]
		}
	}
	p.cgIters += it
	return x
}

// mulA computes out = (D - O) v on the flat CSR. Rows are independent slots
// and every row keeps its sequential term order, so any worker count is
// bit-identical to the plain loop.
func (p *placer) mulA(v, out []float64) {
	if p.workers <= 1 {
		p.mulARange(v, out, 0, len(p.movable))
		return
	}
	par.Blocks(p.workers, len(p.movable), func(w, lo, hi int) {
		p.mulARange(v, out, lo, hi)
	})
}

// csrEnt is one off-diagonal matrix entry: the column paired with its weight
// in a single 8-byte record, so the matvec streams one array instead of two.
type csrEnt struct {
	col int32
	w   float64
}

func (p *placer) mulARange(v, out []float64, lo, hi int) {
	diag := p.diag
	offStart := p.offStart
	offEnt := p.offEnt
	for i := lo; i < hi; i++ {
		out[i] = rowDot(diag[i]*v[i], offEnt[offStart[i]:offStart[i+1]], v)
	}
}

// rowDot computes s - sum(ent.w * v[ent.col]) in entry order — the one
// association every caller shares, fused or parallel, any worker count.
func rowDot(s float64, row []csrEnt, v []float64) float64 {
	for _, e := range row {
		s -= e.w * v[e.col]
	}
	return s
}

// mulADot is mulA fused with the d·Ad dot product. The dot accumulates in
// ascending row order on both the sequential (fused) and parallel (separate
// reduction pass) paths, so the result is bit-identical either way.
func (p *placer) mulADot(d, ax []float64) float64 {
	n := len(p.movable)
	var dad float64
	if p.workers <= 1 {
		diag := p.diag
		offStart := p.offStart
		offEnt := p.offEnt
		for i := 0; i < n; i++ {
			s := rowDot(diag[i]*d[i], offEnt[offStart[i]:offStart[i+1]], d)
			ax[i] = s
			dad += d[i] * s
		}
		return dad
	}
	p.mulA(d, ax)
	for i := 0; i < n; i++ {
		dad += d[i] * ax[i]
	}
	return dad
}

// clampAll keeps cells inside the core and, for hard regions, inside their
// region rectangles.
func (p *placer) clampAll() {
	for vi, id := range p.movable {
		r := p.core
		if p.opt.Regions != nil && !p.opt.SoftRegions {
			if reg, ok := p.opt.Regions[id]; ok {
				r = reg
			}
		}
		p.x[vi] = clamp(p.x[vi], r.X0+p.w[vi]/2, r.X1-p.w[vi]/2)
		p.y[vi] = clamp(p.y[vi], r.Y0+p.h[vi]/2, r.Y1-p.h[vi]/2)
	}
}

func clamp(v, lo, hi float64) float64 {
	if hi < lo {
		return (lo + hi) / 2
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// computeSpreadTargets measures bin overflow, then computes an upper-bound
// (overlap-reduced) placement by recursive capacity-proportional bisection
// (in the spirit of SimPL's look-ahead legalization) and stores it as the
// next round's anchor targets.
func (p *placer) computeSpreadTargets() float64 {
	g := p.bins
	g.clear()
	if p.workers > 1 {
		// Bin lookups fan out into per-cell slots; the deposits themselves
		// accumulate sequentially in cell order, as in the sequential pass.
		if p.binIdx == nil {
			p.binIdx = make([]int32, len(p.movable))
		}
		par.ForEach(p.workers, len(p.movable), func(vi int) {
			i, j := g.index(p.x[vi], p.y[vi])
			p.binIdx[vi] = int32(j*g.nx + i)
		})
		for vi := range p.movable {
			g.area[p.binIdx[vi]] += p.area[vi]
		}
	} else {
		for vi := range p.movable {
			g.deposit(p.x[vi], p.y[vi], p.area[vi])
		}
	}
	of := g.overflow()

	n := len(p.movable)
	if n <= 3 {
		// Degenerate top level: distribute along x in index order, matching
		// the recursive leaf rule on the identity ordering.
		cy := (p.core.Y0 + p.core.Y1) / 2
		for i := 0; i < n; i++ {
			f := (float64(i) + 0.5) / float64(n)
			p.anchX[i] = p.core.X0 + f*p.core.W()
			p.anchY[i] = cy
		}
	} else {
		// Sort once per axis; the recursion below splits these orderings with
		// stable partitions instead of re-sorting every level. The radix sort
		// is stable over an ascending-index fill, so ties resolve by index —
		// the same (coord, index) total order a comparator sort would produce.
		p.sortByCoord(p.byX, p.x)
		p.sortByCoord(p.byY, p.y)
		p.bisect(p.core, p.byX, p.byY, p.partBuf, true, p.workers)
	}
	// Keep region cells anchored inside their region.
	if p.opt.Regions != nil {
		for vi, id := range p.movable {
			if reg, ok := p.opt.Regions[id]; ok {
				p.anchX[vi] = clamp(p.anchX[vi], reg.X0, reg.X1)
				p.anchY[vi] = clamp(p.anchY[vi], reg.Y0, reg.Y1)
			}
		}
	}
	return of
}

// sortByCoord fills ord with 0..n-1 and sorts it by coord with the shared
// stable LSD radix sort (sortx.Sorter). Stability over the ascending fill
// resolves ties by index, the strict total order the bisection recursion
// depends on; see internal/sortx for the determinism argument.
func (p *placer) sortByCoord(ord []int32, coord []float64) {
	p.sorter.IndexByFloat64(ord, coord)
}

// bisect recursively splits the cell set between the two halves of r in
// proportion to their free capacity, alternating axes, and assigns leaf
// region centers as anchor targets.
//
// act holds the set sorted by the active axis (ties by index); oth holds the
// same set sorted by the other axis — the order the child recursion needs —
// and buf is partition scratch of the same length. Splitting act is a slice
// cut; oth is split by a stable partition on membership, which keeps both
// children's orderings sorted without any per-level re-sort. A stable
// partition of a (coord, index)-sorted sequence is exactly the sort the
// per-level algorithm would compute, so the anchors are identical to it.
//
// The two halves touch disjoint cell subslices, scratch ranges and anchor
// slots, so with workers > 1 the top of the recursion forks; the anchors
// written are identical either way.
func (p *placer) bisect(r netlist.Rect, act, oth, buf []int32, xAxis bool, workers int) {
	n := len(act)
	if n == 0 {
		return
	}
	if n <= 3 || (r.W() < 2*p.bins.bw && r.H() < 2*p.bins.bh) {
		// Distribute the few remaining cells across the region, in the
		// parent ordering they arrived in.
		cx := (r.X0 + r.X1) / 2
		cy := (r.Y0 + r.Y1) / 2
		for i, vi := range oth {
			f := (float64(i) + 0.5) / float64(n)
			if xAxis {
				p.anchX[vi] = r.X0 + f*r.W()
				p.anchY[vi] = cy
			} else {
				p.anchX[vi] = cx
				p.anchY[vi] = r.Y0 + f*r.H()
			}
		}
		return
	}
	var lo, hi netlist.Rect
	if xAxis {
		mid := (r.X0 + r.X1) / 2
		lo = netlist.Rect{X0: r.X0, Y0: r.Y0, X1: mid, Y1: r.Y1}
		hi = netlist.Rect{X0: mid, Y0: r.Y0, X1: r.X1, Y1: r.Y1}
	} else {
		mid := (r.Y0 + r.Y1) / 2
		lo = netlist.Rect{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: mid}
		hi = netlist.Rect{X0: r.X0, Y0: mid, X1: r.X1, Y1: r.Y1}
	}
	capLo := p.bins.capacityOf(lo)
	capHi := p.bins.capacityOf(hi)
	if capLo+capHi <= 0 {
		capLo, capHi = 1, 1
	}
	var totalArea float64
	for _, vi := range act {
		totalArea += p.area[vi]
	}
	wantLo := totalArea * capLo / (capLo + capHi)
	var acc float64
	cut := 0
	for cut < n-1 {
		a := p.area[act[cut]]
		if acc+a > wantLo && cut > 0 {
			break
		}
		acc += a
		cut++
	}
	// Stable-partition oth by membership in the low half.
	for _, vi := range act[:cut] {
		p.sideLo[vi] = true
	}
	nl, nh := 0, 0
	for _, vi := range oth {
		if p.sideLo[vi] {
			oth[nl] = vi
			nl++
		} else {
			buf[nh] = vi
			nh++
		}
	}
	copy(oth[nl:], buf[:nh])
	for _, vi := range act[:cut] {
		p.sideLo[vi] = false
	}
	if workers > 1 && cut > 0 && cut < n && n > 128 {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			p.bisect(lo, oth[:cut], act[:cut], buf[:cut], !xAxis, workers/2)
		}()
		p.bisect(hi, oth[cut:], act[cut:], buf[cut:], !xAxis, workers-workers/2)
		if pv := <-done; pv != nil {
			// Re-raise the forked child's panic on the parent goroutine —
			// the same propagation contract internal/par implements.
			panic(pv) //ppalint:ignore nopanic re-raises a captured child-goroutine panic, mirroring internal/par's propagation contract
		}
		return
	}
	p.bisect(lo, oth[:cut], act[:cut], buf[:cut], !xAxis, 1)
	p.bisect(hi, oth[cut:], act[cut:], buf[cut:], !xAxis, 1)
}

func (p *placer) writeBack() {
	for vi, id := range p.movable {
		inst := p.d.Insts[id]
		inst.X = p.x[vi] - p.w[vi]/2
		inst.Y = p.y[vi] - p.h[vi]/2
		inst.Placed = true
	}
}
