// Package flow orchestrates the paper's Algorithm 1: PPA-aware clustering of
// the input netlist, ML-accelerated (or exact) V-P&R cluster shaping, seeded
// placement in either the OpenROAD or the Innovus style, and post-route PPA
// evaluation (HPWL, routed wirelength, WNS, TNS, power).
package flow

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ppaclust/internal/cluster"
	"ppaclust/internal/community"
	"ppaclust/internal/cts"
	"ppaclust/internal/designs"
	"ppaclust/internal/gnn"
	"ppaclust/internal/hier"
	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/place"
	"ppaclust/internal/power"
	"ppaclust/internal/route"
	"ppaclust/internal/sta"
	"ppaclust/internal/vpr"
)

// Tool selects the seeded-placement recipe of Algorithm 1 lines 15-25.
type Tool int

// Tools.
const (
	// ToolOpenROAD scales IO net weights by 4 and runs incremental global
	// placement without region constraints (lines 22-25).
	ToolOpenROAD Tool = iota
	// ToolInnovus builds region constraints from the shaped clusters before
	// incremental placement (lines 16-20).
	ToolInnovus
)

func (t Tool) String() string {
	if t == ToolInnovus {
		return "innovus"
	}
	return "openroad"
}

// Method selects the clustering algorithm.
type Method int

// Clustering methods.
const (
	// MethodPPAAware is the paper's contribution: hierarchy grouping
	// constraints + timing costs + switching costs in multilevel FC.
	MethodPPAAware Method = iota
	// MethodMFC is TritonPart's default multilevel FC (connectivity only).
	MethodMFC
	// MethodLeiden uses Leiden community detection (Table 5 baseline).
	MethodLeiden
	// MethodLouvain uses Louvain communities (the blob placement of [9]).
	MethodLouvain
)

func (m Method) String() string {
	switch m {
	case MethodMFC:
		return "mfc"
	case MethodLeiden:
		return "leiden"
	case MethodLouvain:
		return "louvain"
	default:
		return "ppa-aware"
	}
}

// ShapeMode selects how cluster shapes are assigned (Table 6 ablation).
type ShapeMode int

// Shape modes.
const (
	// ShapeVPRML predicts shapes with the trained GNN (requires Model).
	ShapeVPRML ShapeMode = iota
	// ShapeVPR runs the exact 20-candidate V-P&R sweep.
	ShapeVPR
	// ShapeUniform assigns utilization 0.9, aspect ratio 1.0 everywhere.
	ShapeUniform
	// ShapeRandom assigns a random candidate shape per cluster.
	ShapeRandom
)

func (s ShapeMode) String() string {
	switch s {
	case ShapeVPR:
		return "vpr"
	case ShapeUniform:
		return "uniform"
	case ShapeRandom:
		return "random"
	default:
		return "vpr-ml"
	}
}

// Options configures one flow run.
type Options struct {
	Tool        Tool
	Method      Method
	Shapes      ShapeMode
	Model       *gnn.Model // required for ShapeVPRML
	Alpha       float64    // Eq. 3 connectivity weight, default 1
	Beta        float64    // Eq. 3 timing weight, default 1; negative = disabled (0)
	Gamma       float64    // Eq. 3 switching weight, default 1; negative = disabled (0)
	Mu          float64    // Eq. 2 exponent, default 2
	NoHierarchy bool       // drop the hierarchy grouping constraints (ablation)
	Seed        int64
	SkipRoute   bool // post-place evaluation only (hyperparameter study)
	// TimingDriven enables STA-feedback net reweighting at the flat
	// placement's overflow checkpoints (place.Options.TimingDriven), using
	// the benchmark's constraints. Applied identically by Run and
	// RunDefault.
	TimingDriven bool
	// Workers bounds the goroutines of the stages that fan out — the V-P&R
	// and GNN shape sweeps, the placer's axis pair and the router — and of
	// the flow's own forks: RunDefault's evaluation analyzer built beside
	// legalization and detailed placement, and the router beside CTS, STA
	// and power. 0 = auto (PPACLUST_WORKERS, else GOMAXPROCS), 1 =
	// everything inline. Clustering, STA and CTS do not fork inside. Results
	// are bit-identical for every worker count.
	Workers int
}

const (
	// numPaths is |P|, the number of worst timing paths that feed the
	// clustering timing costs.
	numPaths = 100000
	// ioWeightScale is the OpenROAD-style weight scale on IO nets of the
	// clustered netlist.
	ioWeightScale = 4
	// vprMinInsts is the shape-selection gate: only clusters above this
	// many instances get a shape (the paper's 200, scaled to the smaller
	// clusters of the generated designs).
	vprMinInsts = 50
)

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Beta == 0 {
		o.Beta = 1
	}
	if o.Gamma == 0 {
		o.Gamma = 1
	}
	if o.Mu == 0 {
		o.Mu = 2
	}
	return o
}

// Result carries every metric Algorithm 1 returns plus runtime breakdown.
type Result struct {
	HPWL     float64
	RoutedWL float64 // microns, signal + clock tree
	WNS      float64 // seconds (<= 0)
	TNS      float64 // seconds (<= 0)
	HoldWNS  float64 // worst hold slack (seconds, <= 0 when violating)
	HoldTNS  float64 // total negative hold slack (seconds)
	DRVCap   int     // max-capacitance violations
	DRVSlew  int     // max-transition violations
	Power    float64 // watts, including clock tree
	PowerRep power.Report
	ClockWL  float64
	Overflow int
	// MaxCongestion is the routing grid's worst edge utilization
	// (use/capacity) from the evaluation route.
	MaxCongestion float64

	Clusters   int
	Singletons int
	ShapedVPR  int // clusters that went through shape selection

	// Placed is the final placed-and-evaluated design (a clone of the
	// input benchmark's design), for DEF export or inspection.
	Placed *netlist.Design
	// ClockArrivals are the CTS clock arrivals the evaluation timed Placed
	// with (nil under SkipRoute or without a clock net): an analyzer built
	// on Placed reports the same paths once they are set on it with
	// sta.SetClockArrivalList.
	ClockArrivals []sta.ClockArrival

	ClusterTime   time.Duration
	ShapeTime     time.Duration
	SeedPlaceTime time.Duration
	IncrPlaceTime time.Duration
	// PlaceTime is the clustering-flow placement cost compared against the
	// default flow in Table 2: clustering + seed + incremental placement.
	PlaceTime time.Duration
}

// checkDesign validates a design at the boundary of both flows: every net
// pin resolves to a declared port or master pin and the design fits the
// int32 compact CSR (CompactChecked), so a bad design fails with an error
// instead of tripping the must-style Compact panic deep inside a stage, and a core
// with room for the cells on at least one row of sites, so no flow reports
// numbers for a placement that cannot be legal, and finite coordinates on
// everything the placer holds still plus finite non-negative net weights: one
// NaN or infinity among the placer's constants reaches every metric, and a
// NaN weight ruins the placement while every metric stays finite. The clock
// period must be finite and positive too: a NaN one yields NaN power with
// zero WNS/TNS, a zero one a leakage-only power, and neither fails a stage.
func checkDesign(d *netlist.Design, cons sta.Constraints) error {
	if _, err := d.CompactChecked(); err != nil {
		return fmt.Errorf("flow: design %s: %w", d.Name, err)
	}
	if !(d.Core.W() > 0 && d.Core.H() > 0) {
		return fmt.Errorf("flow: design %s: core %g x %g um has no area", d.Name, d.Core.W(), d.Core.H())
	}
	if !(d.RowHeight > 0 && d.SiteWidth > 0 && d.Core.H() >= d.RowHeight && d.Core.W() >= d.SiteWidth) {
		return fmt.Errorf("flow: design %s: core %g x %g um holds no row (height %g um) of sites (width %g um)", d.Name, d.Core.W(), d.Core.H(), d.RowHeight, d.SiteWidth)
	}
	if u := d.Utilization(); u > 1 {
		return fmt.Errorf("flow: design %s: utilization %.2f, the cells do not fit the core", d.Name, u)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, port := range d.Ports {
		if !(finite(port.X) && finite(port.Y)) {
			return fmt.Errorf("flow: design %s: port %s is at (%g, %g)", d.Name, port.Name, port.X, port.Y)
		}
	}
	for _, inst := range d.Insts {
		if inst.Fixed && !(finite(inst.X) && finite(inst.Y)) {
			return fmt.Errorf("flow: design %s: fixed instance %s is at (%g, %g)", d.Name, inst.Name, inst.X, inst.Y)
		}
	}
	for _, net := range d.Nets {
		if !(finite(net.Weight) && net.Weight >= 0) {
			return fmt.Errorf("flow: design %s: net %s has weight %g", d.Name, net.Name, net.Weight)
		}
	}
	if !(finite(cons.ClockPeriod) && cons.ClockPeriod > 0) {
		return fmt.Errorf("flow: design %s: clock period %g ns is not finite and positive", d.Name, cons.ClockPeriod*1e9)
	}
	return nil
}

// Run executes the clustered flow on a copy of the benchmark design and
// returns the metrics. The benchmark's design is not mutated.
func Run(b *designs.Benchmark, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	d := b.Design.Clone()
	res := &Result{}
	if err := checkDesign(d, b.Cons); err != nil {
		return nil, err
	}

	// ---- Clustering (Algorithm 1 lines 2-10) ----
	t0 := time.Now()
	cres, an, err := clusterNetlist(d, b.Cons, opt)
	if err != nil {
		return nil, err
	}
	assign, nClusters := cres.Assign, cres.NumClusters
	res.Clusters, res.Singletons = nClusters, cres.Singletons
	res.ClusterTime = time.Since(t0)

	// ---- Cluster shapes (lines 12-13) ----
	t0 = time.Now()
	shapes, shaped, err := selectShapes(d, assign, nClusters, opt)
	if err != nil {
		return nil, err
	}
	res.ShapedVPR = len(shaped)
	res.ShapeTime = time.Since(t0)

	// ---- Seed placement of the clustered netlist (lines 15-25) ----
	t0 = time.Now()
	cd, clusterInsts, err := BuildClusteredDesign(d, assign, nClusters, shapes)
	if err != nil {
		return nil, err
	}
	if opt.Tool == ToolOpenROAD {
		scaleIONets(cd, ioWeightScale)
	}
	place.Global(cd, place.Options{Seed: opt.Seed, Workers: opt.Workers})
	// Cluster cells are macro-sized; remove overlaps so cluster footprints
	// (and the region constraints derived from them) are disjoint.
	place.RemoveOverlaps(cd)
	res.SeedPlaceTime = time.Since(t0)

	// Place instances at their cluster centers.
	t0 = time.Now()
	for instID, c := range assign {
		inst := d.Insts[instID]
		if inst.Fixed {
			continue
		}
		ci := cd.Insts[clusterInsts[c]]
		inst.X = ci.CenterX() - inst.Master.Width/2
		inst.Y = ci.CenterY() - inst.Master.Height/2
		inst.Placed = true
	}
	// Incremental flat placement. The timing feedback runs here, on the flat
	// design — the clustered seed placement's synthetic masters have no
	// timing arcs to analyze.
	popt := place.Options{Seed: opt.Seed, Incremental: true,
		Workers:      opt.Workers,
		TimingDriven: opt.TimingDriven, TimingCons: b.Cons}
	if opt.Tool == ToolInnovus {
		// Region constraints guide the incremental placement and are then
		// removed (Algorithm 1 lines 18-20).
		popt.Regions = buildRegions(d, assign, shaped, cd, clusterInsts)
	}
	place.Global(d, popt)
	place.Legalize(d)
	place.Detailed(d, place.DetailedOptions{Seed: opt.Seed, Workers: opt.Workers})
	res.IncrPlaceTime = time.Since(t0)
	res.PlaceTime = res.ClusterTime + res.SeedPlaceTime + res.IncrPlaceTime

	// ---- Evaluation (lines 27-30) ----
	// Only the PPA-aware method timed the netlist; the others build the
	// analyzer evaluate switches to placed parasitics here.
	if an == nil && !opt.SkipRoute {
		an = zeroWireAnalyzer(d, b.Cons)
	}
	if err := evaluate(d, b.Cons, opt, res, an); err != nil {
		return nil, err
	}
	res.Placed = d
	return res, nil
}

// RunDefault executes the flat (no clustering, no V-P&R) baseline flow.
func RunDefault(b *designs.Benchmark, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	d := b.Design.Clone()
	res := &Result{}
	if err := checkDesign(d, b.Cons); err != nil {
		return nil, err
	}
	t0 := time.Now()
	place.Global(d, place.Options{Seed: opt.Seed, Workers: opt.Workers,
		TimingDriven: opt.TimingDriven, TimingCons: b.Cons})
	// The evaluation's analyzer reads no coordinate while it is zero-wire,
	// so it is built beside legalization and detailed placement.
	var an *sta.Analyzer
	fork(opt.Workers, func() {
		place.Legalize(d)
		place.Detailed(d, place.DetailedOptions{Seed: opt.Seed, Workers: opt.Workers})
		res.IncrPlaceTime = time.Since(t0)
	}, func() {
		if !opt.SkipRoute {
			an = zeroWireAnalyzer(d, b.Cons)
		}
	})
	res.PlaceTime = res.IncrPlaceTime
	if err := evaluate(d, b.Cons, opt, res, an); err != nil {
		return nil, err
	}
	res.Placed = d
	return res, nil
}

// Cluster runs the clustering stage of Run (Algorithm 1 lines 2-10) alone,
// on a copy of the benchmark design validated as Run validates it, and
// returns the dense instance->cluster assignment Run goes on to shape and
// place, with its cluster and singleton counts. Leiden and Louvain leave
// Levels at 0.
func Cluster(b *designs.Benchmark, opt Options) (cluster.Result, error) {
	d := b.Design.Clone()
	if err := checkDesign(d, b.Cons); err != nil {
		return cluster.Result{}, err
	}
	res, _, err := clusterNetlist(d, b.Cons, opt.withDefaults())
	return res, err
}

// clusterNetlist is Cluster's core: it runs the selected clustering method
// on d. The PPA-aware method also returns the zero-wire analyzer it timed
// the netlist with, so evaluate can reuse the timing graph (switched to
// placed parasitics) instead of rebuilding it; the other methods return a
// nil analyzer.
func clusterNetlist(d *netlist.Design, cons sta.Constraints, opt Options) (cluster.Result, *sta.Analyzer, error) {
	view := d.ToHypergraph()
	switch opt.Method {
	case MethodLeiden, MethodLouvain:
		g := view.H.CliqueExpand()
		var assign []int
		if opt.Method == MethodLeiden {
			assign = community.Leiden(g, community.Options{Seed: opt.Seed})
		} else {
			assign = community.Louvain(g, community.Options{Seed: opt.Seed})
		}
		res := cluster.Result{Assign: assign, NumClusters: community.NumCommunities(assign)}
		for _, n := range cluster.Sizes(assign, res.NumClusters) {
			if n == 1 {
				res.Singletons++
			}
		}
		return res, nil, nil
	case MethodMFC:
		return cluster.MultilevelFC(view.H, cluster.Options{Alpha: 1, Seed: opt.Seed}), nil, nil
	case MethodPPAAware:
		// Hierarchy-based grouping constraints (Algorithm 2).
		var groups []int
		if !opt.NoHierarchy {
			if hres, ok := hier.Cluster(d, view.H); ok {
				groups = hres.Assign
			}
		}
		// Timing and switching info from the virtual STA. The netlist is
		// unplaced at this point, so wire parasitics are ignored — timing
		// criticality reflects logic depth, as in the paper's pre-placement
		// OpenSTA extraction.
		an := zeroWireAnalyzer(d, cons)
		paths := an.TopPaths(numPaths)
		pathNets := make([][]int, len(paths))
		slacks := make([]float64, len(paths))
		for i, p := range paths {
			slacks[i] = p.Slack
			for _, netID := range p.Nets {
				if e := view.EdgeOfNet[netID]; e >= 0 {
					pathNets[i] = append(pathNets[i], e)
				}
			}
		}
		tCost := cluster.TimingCosts(pathNets, slacks, cons.ClockPeriod, view.H.NumEdges())
		netAct := an.NetActivity()
		edgeAct := make([]float64, view.H.NumEdges())
		for e, netID := range view.NetOfEdge {
			edgeAct[e] = netAct[netID]
		}
		sCost := cluster.SwitchCosts(edgeAct, opt.Mu)
		res := cluster.MultilevelFC(view.H, cluster.Options{
			Alpha: opt.Alpha, Beta: nonNegative(opt.Beta), Gamma: nonNegative(opt.Gamma),
			Seed:           opt.Seed,
			Groups:         groups,
			EdgeTimingCost: tCost,
			EdgeSwitchCost: sCost,
		})
		return res, an, nil
	}
	return cluster.Result{}, nil, fmt.Errorf("flow: unknown clustering method %d", opt.Method)
}

// zeroWireAnalyzer builds d's analyzer under cons with wire parasitics off.
// Its build reads no coordinate, so it may run while another stage moves
// cells; evaluate switches it to placed parasitics.
func zeroWireAnalyzer(d *netlist.Design, cons sta.Constraints) *sta.Analyzer {
	cons.ZeroWire = true
	return sta.New(d, cons)
}

// fork runs a and b side by side on two goroutines when the worker budget
// allows it, else a then b inline. They must not write what the other
// reads.
func fork(workers int, a, b func()) {
	par.Blocks(par.Workers(workers), 2, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 {
				a()
			} else {
				b()
			}
		}
	})
}

// selectShapes assigns a shape to every cluster. Clusters above the VPR gate
// go through the selected shape engine and are marked as shaped (they will
// receive region constraints in Innovus mode, whatever the engine); the rest
// use the uniform shape without a region.
func selectShapes(d *netlist.Design, assign []int, nClusters int, opt Options) (map[int]vpr.Shape, map[int]bool, error) {
	shapes := make(map[int]vpr.Shape, nClusters)
	shaped := make(map[int]bool)
	members := make([][]int, nClusters)
	for inst, c := range assign {
		members[c] = append(members[c], inst)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 5))
	cands := vpr.ShapeCandidates()
	for c := 0; c < nClusters; c++ {
		shapes[c] = vpr.UniformShape
		if len(members[c]) <= vprMinInsts {
			continue
		}
		shaped[c] = true
		switch opt.Shapes {
		case ShapeUniform:
			// keep uniform
		case ShapeRandom:
			shapes[c] = cands[rng.Intn(len(cands))]
		case ShapeVPR:
			sub, err := vpr.InduceSubNetlist(d, members[c])
			if err != nil {
				return nil, nil, err
			}
			best, _ := vpr.BestShape(sub, vpr.Runner{Opt: vpr.Options{Seed: opt.Seed, Workers: opt.Workers}})
			shapes[c] = best
		case ShapeVPRML:
			if opt.Model == nil {
				return nil, nil, fmt.Errorf("flow: ShapeVPRML requires a trained model")
			}
			sub, err := vpr.InduceSubNetlist(d, members[c])
			if err != nil {
				return nil, nil, err
			}
			g := gnn.BuildGraphInput(sub, featOptions(opt.Seed))
			shapes[c] = opt.Model.PredictBestShapeWorkers(g, opt.Workers)
		}
	}
	return shapes, shaped, nil
}

// scaleIONets multiplies the weight of nets touching top-level ports by the
// IO weight scale ([9]'s x4 rule, Algorithm 1 line 22).
func scaleIONets(d *netlist.Design, scale float64) {
	for _, n := range d.Nets {
		for _, pr := range n.Pins {
			if pr.IsPort() {
				n.Weight *= scale
				break
			}
		}
	}
}

// regionUtil is the cell utilization every region is drawn at, regardless
// of the cluster's V-P&R shape. Keeping region *area* shape-independent
// means shape choice influences the flow through seed geometry and packing,
// not through how much slack the region grants the incremental placer.
const regionUtil = 0.55

// buildRegions creates the per-instance region constraints of the Innovus
// recipe: each shaped cluster's region is centered on its seed footprint,
// carries the shape's aspect ratio, holds the cluster's cells at regionUtil,
// and is clamped into the core.
func buildRegions(d *netlist.Design, assign []int, shaped map[int]bool,
	cd *netlist.Design, clusterInsts []int) map[int]netlist.Rect {

	regions := make(map[int]netlist.Rect)
	core := d.Core
	// Cell area per cluster (movable cells only).
	area := make([]float64, len(clusterInsts))
	for inst, c := range assign {
		if !d.Insts[inst].Fixed {
			area[c] += d.Insts[inst].Master.Area()
		}
	}
	rects := make([]netlist.Rect, len(clusterInsts))
	for c, ii := range clusterInsts {
		ci := cd.Insts[ii]
		ar := ci.Master.Height / ci.Master.Width
		if ar <= 0 {
			ar = 1
		}
		ra := area[c] / regionUtil
		w := mathSqrt(ra / ar)
		h := w * ar
		cx, cy := ci.CenterX(), ci.CenterY()
		r := netlist.Rect{X0: cx - w/2, Y0: cy - h/2, X1: cx + w/2, Y1: cy + h/2}
		if r.X0 < core.X0 {
			r.X0 = core.X0
		}
		if r.Y0 < core.Y0 {
			r.Y0 = core.Y0
		}
		if r.X1 > core.X1 {
			r.X1 = core.X1
		}
		if r.Y1 > core.Y1 {
			r.Y1 = core.Y1
		}
		rects[c] = r
	}
	for inst, c := range assign {
		if d.Insts[inst].Fixed {
			continue
		}
		if shaped[c] {
			regions[inst] = rects[c]
		}
	}
	return regions
}

// nonNegative maps the "negative = disabled" convention to a weight.
func nonNegative(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func mathSqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// evaluate fills HPWL and (unless SkipRoute) post-route PPA into res. an is
// the design's zero-wire analyzer, built by the flow beside an earlier
// stage: the graph topology is unchanged, so SetZeroWire to placed
// parasitics plus Update yields bit-identical results to a fresh sta.New.
// The router and the timing side (CTS, STA, power) only read the design, so
// they run side by side, the router on all workers but the one the timing
// side takes; one worker runs them inline, router first.
func evaluate(d *netlist.Design, cons sta.Constraints, opt Options, res *Result, an *sta.Analyzer) error {
	res.HPWL = d.HPWL()
	if opt.SkipRoute {
		return nil
	}
	workers := par.Workers(opt.Workers)
	var (
		rres *route.Result
		err  error
	)
	fork(workers, func() {
		rres = route.GlobalRoute(d, route.Options{Workers: max(workers-1, 1)})
	}, func() {
		err = signoff(d, cons, res, an)
	})
	if err != nil {
		return err
	}
	res.Overflow = rres.Overflow
	res.MaxCongestion = rres.MaxCongestion
	res.RoutedWL = rres.WirelengthUM + res.ClockWL
	return nil
}

// signoff synthesizes a clock tree on every clock net, times the placed
// design with all their arrivals on an and fills res's clock, timing, DRV
// and power fields.
func signoff(d *netlist.Design, cons sta.Constraints, res *Result, an *sta.Analyzer) error {
	an.SetZeroWire(cons.ZeroWire)
	an.Update()
	var clockPower float64
	for _, n := range d.Nets {
		if !n.Clock {
			continue
		}
		buf := d.Lib.Master("CLKBUF_X2")
		if buf == nil {
			return fmt.Errorf("flow: clock tree synthesis on net %s needs CLKBUF_X2 in the library", n.Name)
		}
		copt := cts.Options{BufMaster: buf}
		cres := cts.Synthesize(d, n, copt)
		if len(cres.ArrivalList) > 0 {
			res.ClockArrivals = append(res.ClockArrivals, cres.ArrivalList...)
			cres.EstimatePower(copt, cons.ClockPeriod, power.DefaultVdd)
			clockPower += cres.Power
			res.ClockWL += cres.WirelengthUM
		}
	}
	an.SetClockArrivalList(res.ClockArrivals)
	sum := an.Timing()
	res.WNS = sum.WNS
	res.TNS = sum.TNS
	hold := an.HoldTiming()
	res.HoldWNS = hold.WHS
	res.HoldTNS = hold.THS
	drv := an.DRV()
	res.DRVCap = drv.MaxCapViolations
	res.DRVSlew = drv.MaxSlewViolations
	res.PowerRep = power.Analyze(an, power.DefaultVdd)
	res.Power = res.PowerRep.Total() + clockPower
	return nil
}
