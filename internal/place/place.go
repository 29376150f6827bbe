// Package place is the reproduction's global placer, standing in for
// RePlAce/OpenROAD gpl and the Innovus placer. It is a quadratic placer:
// a bound-to-bound (B2B) net model is solved per axis with Jacobi-
// preconditioned conjugate gradient, interleaved with capacity-bisection
// spreading anchored through pseudo-nets. From-scratch runs on
// large designs warm-start from a cluster-hierarchy coarse placement
// (multigrid style; see multigrid.go). It supports the two modes the
// paper's flow requires: from-scratch placement of (clustered) netlists, and
// incremental placement seeded from initial positions (Algorithm 1 lines
// 15-25), optionally guided by per-instance regions (Innovus mode).
// A Tetris-style legalizer snaps cells to rows/sites.
//
// The hot paths run on the netlist's Compact CSR view: system assembly walks
// flat pin arrays (variable index or precomputed constant coordinate per
// pin) instead of *Net/*Instance pointers and port-name map lookups. A
// round's two axis systems share no state, so the unit of parallel work is
// one axis solve (solveRound): each axis owns an axisSystem — spring list, CG
// vectors, assembly scratch — allocated once per run, so a round allocates
// nothing in steady state.
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
	// Iterations is the number of solve+spread rounds. Default 24, or 6 when
	// Incremental, which a run still above overflow unspreadOverflow after
	// them extends round by round to at most 12 (DESIGN.md §13 "Overflow
	// stagnation stop" says why).
	Iterations int
	// Incremental starts from the instances' current positions and anchors
	// to them instead of starting at the core center.
	Incremental bool
	// Regions guides instances (by ID) toward rectangles, the Innovus-style
	// region constraints of Algorithm 1 lines 18-20: for the first
	// regionRounds rounds a region cell's spreading anchor is clamped into
	// its region, then the constraints are removed and the cell may leave.
	Regions map[int]netlist.Rect
	// AnchorWeight is ignored; kept for frozen benchmark/replay.go.
	// Incremental runs anchor to the seed at incrementalAnchorWeight.
	AnchorWeight float64
	// SoftRegions is ignored; kept for frozen benchmark/replay.go. Regions
	// are always soft.
	SoftRegions bool
	// RegionIterations is ignored; kept for frozen benchmark/replay.go.
	// Regions steer regionRounds rounds.
	RegionIterations int
	// Seed jitters the initial placement deterministically.
	Seed int64
	// Workers bounds the goroutines a run uses: 0 = auto (PPACLUST_WORKERS,
	// else GOMAXPROCS), 1 = everything inline. From two workers up the x and
	// y solves of a round run side by side, and so do the two halves of the
	// spreading bisection's first cut; the placer forks nowhere else, so a
	// third worker and up buy it nothing. The halves of either pair share no
	// state, so the placement is bit-identical for every worker count.
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
	// noStall disables the overflow-stagnation stop. Only the coarse
	// warm-start recursion sets it: the coarse model's huge cluster-cells
	// floor its quantized overflow immediately, yet the later rounds keep
	// improving the positions the fine problem interpolates from, and the
	// coarse solve is too cheap for early exit to matter.
	noStall bool
	// spreadRounds, when above Iterations, lets a run whose overflow is
	// still above unspreadOverflow after its last round go on, one round at
	// a time, to at most spreadRounds rounds. withDefaults sets it for an
	// incremental run's default budget.
	spreadRounds int
	// coarseInit overrides useCoarseInit's size policy: 0 = auto, 1 = force
	// the warm start on (tests, to exercise it on small designs), -1 = force
	// it off (the warm-start recursion's coarse solve, so the recursion
	// terminates at depth 1 whatever the clustering returned).
	coarseInit int
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		if o.Incremental {
			o.Iterations, o.spreadRounds = 6, 12
		} else {
			o.Iterations = 24
		}
	}
	return o
}

const (
	// incrementalAnchorWeight scales the seed anchors of an incremental run.
	incrementalAnchorWeight = 0.1
	// regionRounds is how many initial rounds Options.Regions steers: brief
	// guidance, then free refinement.
	regionRounds = 2
)

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
	// unspreadOverflow is the overflow above which a run's cells still sit
	// stacked on their seed: a run with Options.spreadRounds goes on past
	// its budget while its overflow is above it.
	unspreadOverflow = 0.5
)

// cgRelTol is the relative preconditioned-residual reduction at which a CG
// solve stops early: rz <= cgRelTol^2 * rz0 corresponds to a cgRelTol drop
// of the preconditioned residual norm. The placer interleaves solves with
// spreading, so squeezing the last digits out of an intermediate solve buys
// nothing. In practice cgMaxIters ends every solve first (see cg).
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
	// actually gets: re-measured from the committed positions and the
	// masters' areas, not the last loop iterate.
	Overflow float64
	// CGIterations is the total conjugate-gradient iterations spent across
	// all axis solves (including the coarse warm-start solve, if any).
	CGIterations int
	// TimingReweights counts the feedback checkpoints that actually changed
	// net weights (see driven.go).
	TimingReweights int
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
	area    []float64 // spreading area w*h, stored: the bisection reads it in coordinate order

	// Flat connectivity snapshot for system assembly, derived from the
	// design's Compact view at collect time. Fixed instances and ports do
	// not move during a run, so their pin coordinates are constants.
	cm         *netlist.Compact
	pinVar     []int32   // per compact pin: variable index, or -1 (constant)
	pinCX      []float64 // per compact pin: x coordinate when constant
	pinCY      []float64 // per compact pin: y coordinate when constant
	netW       []float64 // per net: weight
	activeNets []int32   // nets with 2..maxNetPins pins, ascending

	// Static assembly bounds (snapshotConnectivity): springCap is the most
	// springs a round can emit, maxPins the largest active net's pin count.
	springCap int
	maxPins   int
	axes      [2]*axisSystem // x, y; one shared system at one worker
	bins      *binGrid
	anchX     []float64 // spreading targets
	anchY     []float64
	seedX     []float64 // incremental seed positions
	seedY     []float64

	// spreading scratch, allocated once per run
	byX, byY, partBuf []int32      // bisection orderings + partition scratch
	sorter            sortx.Sorter // shared radix-sort scratch
	sideLo            []bool       // bisection membership marks
	cgIters           int          // all axis solves so far, plus the coarse warm start's

	// timing feedback state (driven.go)
	ckptNext  int           // next checkpointOverflows index to fire
	an        *sta.Analyzer // built lazily at the first timing checkpoint
	slackBuf  []float64     // NetSlackInto scratch
	netW0     []float64     // pre-reweight net weights (netWeightMax base)
	critBuf   []int32       // candidate net scratch for criticality ranking
	reweights int
}

// maxNetPins is the pin-count ceiling above which a net is excluded from the
// B2B model (huge nets carry no locality information and would produce dense
// rows).
const maxNetPins = 2000

// spring is one two-point quadratic term w*(a-b)^2 of the B2B model between
// two distinct variables: the off-diagonal part of the round's matrix. A term
// with a constant endpoint only reaches diag and rhs; one between two
// constants, or a variable and itself, contributes nothing.
type spring struct {
	vi, vj int32
	w      float64
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
	p.newAxes()
	p.initPositions()
	if p.useCoarseInit() {
		p.coarseInit()
	}

	iter := 0
	overflow := 1.0
	best := math.Inf(1)
	stall := 0
	rounds := opt.Iterations
	for ; iter < rounds; iter++ {
		if iter == regionRounds {
			p.opt.Regions = nil // constraints removed after the guided phase
		}
		spreadW := spreadWeight * math.Sqrt(float64(iter))
		p.solveRound(spreadW)
		p.clampAll()
		overflow = p.computeSpreadTargets()
		if iter+1 == rounds && rounds < opt.spreadRounds && overflow > unspreadOverflow {
			rounds++ // still stacked on the seed: one more round
		}
		if p.checkpoint(overflow, iter, rounds) {
			// A feedback checkpoint changed net weights; give the loop
			// fresh rounds to absorb it before any stagnation cut or early
			// exit. The reset is a pure function of the overflow
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
	return Result{
		HPWL:            d.HPWL(),
		Iterations:      iter,
		Overflow:        p.finalOverflow(),
		CGIterations:    p.cgIters,
		TimingReweights: p.reweights,
	}
}

// finalOverflow re-measures bin overflow from the committed instance
// positions and the masters' areas, so Result.Overflow describes the
// placement the caller gets rather than the solver's last iterate.
func (p *placer) finalOverflow() float64 {
	g := p.bins
	g.clear()
	for _, id := range p.movable {
		inst := p.d.Insts[id]
		g.deposit(inst.CenterX(), inst.CenterY(), inst.Master.Width*inst.Master.Height)
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
// map. A port pin sits at the port; a fixed instance pin sits at the cell
// center; a movable instance pin tracks the cell-center variable.
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
			// A P-pin net emits 2P-3 springs — every pin to both boundary
			// pins, the boundary pair once — or 2(P-1) when all its pins
			// coincide and min and max are the same pin.
			p.springCap += 2 * (pc - 1)
			p.maxPins = max(p.maxPins, pc)
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

// axisSystem is one axis's linear system (D - O) v = rhs and everything a
// solve of it touches, so two axes can be assembled and solved concurrently.
// O is never stored as a matrix: springs lists the round's variable-to-
// variable terms in the order netSprings met them, one 16-byte record each,
// and mulADot scatters every one into its two rows.
type axisSystem struct {
	diag, rhs []float64
	invDiag   []float64 // 1/diag (0 where diag <= 0), the Jacobi preconditioner
	springs   []spring  // capacity placer.springCap, so a round never grows it
	pins      []pinc    // maxPins of netSprings scratch

	cgX, cgAx, cgR, cgD []float64
}

// newAxes allocates the run's axis systems. At one worker both axes take
// turns on a single system, so the run costs what one system costs.
func (p *placer) newAxes() {
	p.axes[0] = p.newAxisSystem()
	p.axes[1] = p.axes[0]
	if p.workers > 1 {
		p.axes[1] = p.newAxisSystem()
	}
}

func (p *placer) newAxisSystem() *axisSystem {
	n := len(p.movable)
	return &axisSystem{
		diag:    make([]float64, n),
		rhs:     make([]float64, n),
		invDiag: make([]float64, n),
		springs: make([]spring, 0, p.springCap),
		pins:    make([]pinc, p.maxPins),
		cgX:     make([]float64, n),
		cgAx:    make([]float64, n),
		cgR:     make([]float64, n),
		cgD:     make([]float64, n),
	}
}

// solveRound solves the round's x and y systems. Each reads and writes only
// its own axis's positions, anchors and system, so from two workers up they
// run side by side over sequential kernels: one fork per round.
func (p *placer) solveRound(spreadW float64) {
	if p.workers <= 1 {
		p.cgIters += p.axes[0].solve(p, true, spreadW)
		p.cgIters += p.axes[1].solve(p, false, spreadW)
		return
	}
	var its [2]int
	par.Blocks(2, 2, func(axis, _, _ int) {
		its[axis] = p.axes[axis].solve(p, axis == 0, spreadW)
	})
	p.cgIters += its[0] + its[1]
}

// solve assembles the axis's B2B system against the current positions,
// solves it with CG, stores the solution as the axis's new positions and
// returns the CG iterations spent.
func (s *axisSystem) solve(p *placer, xAxis bool, spreadW float64) int {
	pos, fix, anch, seed := p.x, p.pinCX, p.anchX, p.seedX
	if !xAxis {
		pos, fix, anch, seed = p.y, p.pinCY, p.anchY, p.seedY
	}
	s.assemble(p, pos, fix, anch, seed, spreadW)
	return s.cg(pos)
}

// assemble builds diag, rhs, the spring list and the preconditioner: the
// nets' springs first, in net order, then the anchors.
func (s *axisSystem) assemble(p *placer, pos, fix, anch, seed []float64, spreadW float64) {
	diag, rhs := s.diag, s.rhs
	clear(diag)
	clear(rhs)
	s.netSprings(p, pos, fix)
	// Spreading anchors (toward the bisection upper-bound placement) and,
	// in incremental mode, seed anchors (toward the initial positions).
	for vi := range diag {
		if spreadW > 0 {
			diag[vi] += spreadW
			rhs[vi] += spreadW * anch[vi]
		}
		if p.opt.Incremental {
			diag[vi] += incrementalAnchorWeight
			rhs[vi] += incrementalAnchorWeight * seed[vi]
		}
		s.invDiag[vi] = 0
		if diag[vi] > 0 {
			s.invDiag[vi] = 1 / diag[vi]
		}
	}
}

// pinc is one net pin projected onto the active axis.
type pinc struct {
	c  float64
	vi int32
}

// netSprings adds the B2B springs of the active nets, taken against the axis
// positions pos and the flat pin snapshot, to diag and rhs, and lists those
// between two variables in s.springs. A P-pin net emits at most 2(P-1), so the
// list stays inside the capacity it was allocated with. It only reads placer
// state, so the two axes may run it concurrently.
func (s *axisSystem) netSprings(p *placer, pos, fix []float64) {
	diag, rhs, springs := s.diag, s.rhs, s.springs[:0]
	for _, ni := range p.activeNets {
		first := int(p.cm.NetStart[ni])
		pins := s.pins[:int(p.cm.NetStart[ni+1])-first]
		minI, maxI := 0, 0
		for i := range pins {
			vi := p.pinVar[first+i]
			c := fix[first+i]
			if vi >= 0 {
				c = pos[vi]
			}
			pins[i] = pinc{c, vi}
			if c < pins[minI].c {
				minI = i
			}
			if c > pins[maxI].c {
				maxI = i
			}
		}
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
				w := p.netW[ni] * 2 / (float64(len(pins)-1) * dist)
				switch vi, vj := q.vi, b.vi; {
				case vi >= 0 && vj >= 0:
					if vi != vj {
						diag[vi] += w
						diag[vj] += w
						springs = append(springs, spring{vi, vj, w})
					}
				case vi >= 0:
					diag[vi] += w
					rhs[vi] += w * b.c
				case vj >= 0:
					diag[vj] += w
					rhs[vj] += w * q.c
				}
			}
		}
	}
	s.springs = springs
}

// cg solves (D - O) v = rhs with Jacobi-preconditioned conjugate gradient,
// warm-started from pos, writes the solution back into pos and returns the
// iterations spent. Solves stop at cgMaxIters, at an absolute residual
// floor, or once the preconditioned residual norm drops below cgRelTol times
// the right-hand side's, the textbook relative criterion. In practice it is
// the cap that ends them, warm-started or not: from a 318-cell TinySpec to
// scale250k every solve of every round spends all cgMaxIters iterations
// (DESIGN.md §12 "Solver" on why the truncation is load-bearing).
func (s *axisSystem) cg(pos []float64) int {
	n := len(pos)
	x := s.cgX
	copy(x, pos)
	ax := s.cgAx
	r := s.cgR
	d := s.cgD
	rhs := s.rhs
	iv := s.invDiag
	s.mulADot(x, ax) // only ax = A x is wanted here
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
		dad := s.mulADot(d, ax)
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
	copy(pos, x)
	return it
}

// mulADot computes ax = (D - O) d and returns d·ax accumulated in ascending
// row order. Every spring subtracts its term from both its rows; a row's
// terms therefore leave diag[i]*d[i] in the order its springs were met, the
// order a row-by-row product over per-row entry lists would take them in.
func (s *axisSystem) mulADot(d, ax []float64) float64 {
	for i, di := range d {
		ax[i] = s.diag[i] * di
	}
	for _, sp := range s.springs {
		ax[sp.vi] -= sp.w * d[sp.vj]
		ax[sp.vj] -= sp.w * d[sp.vi]
	}
	var dot float64
	for i, di := range d {
		dot += di * ax[i]
	}
	return dot
}

// clampAll keeps cells inside the core.
func (p *placer) clampAll() {
	c := p.core
	for vi := range p.movable {
		p.x[vi] = clamp(p.x[vi], c.X0+p.w[vi]/2, c.X1-p.w[vi]/2)
		p.y[vi] = clamp(p.y[vi], c.Y0+p.h[vi]/2, c.Y1-p.h[vi]/2)
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
	for vi := range p.movable {
		g.deposit(p.x[vi], p.y[vi], p.area[vi])
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
		p.bisect(p.core, p.byX, p.byY, p.partBuf, true, p.workers > 1)
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
// slots, so with fork set the halves of this cut (and only this one: the
// top of the recursion) run side by side; the anchors written are identical
// either way.
func (p *placer) bisect(r netlist.Rect, act, oth, buf []int32, xAxis, fork bool) {
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
	if fork && cut > 0 && cut < n && n > 128 {
		// Each block takes the cells, scratch range and rectangle its own
		// index selects.
		rects := [2]netlist.Rect{lo, hi}
		ends := [3]int{0, cut, n}
		par.Blocks(2, 2, func(h, _, _ int) {
			a, b := ends[h], ends[h+1]
			p.bisect(rects[h], oth[a:b], act[a:b], buf[a:b], !xAxis, false)
		})
		return
	}
	p.bisect(lo, oth[:cut], act[:cut], buf[:cut], !xAxis, false)
	p.bisect(hi, oth[cut:], act[cut:], buf[cut:], !xAxis, false)
}

func (p *placer) writeBack() {
	for vi, id := range p.movable {
		inst := p.d.Insts[id]
		inst.X = p.x[vi] - p.w[vi]/2
		inst.Y = p.y[vi] - p.h[vi]/2
		inst.Placed = true
	}
}
