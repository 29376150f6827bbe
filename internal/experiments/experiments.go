// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) on the synthetic benchmark suite: Table 1
// (benchmark statistics), Table 2 (post-place HPWL/CPU vs blob placement
// [9] and the default flow), Table 3 (post-route PPA, OpenROAD), Table 4
// (post-route PPA, Innovus), Table 5 (clustering ablation), Table 6 (shape
// ablation), the Section 4.4 GNN MAE/R2 metrics, and Figure 5
// (hyperparameter sweep).
//
// Absolute values cannot match the paper (the substrate is a simulator and
// the designs are synthetic); the suite asserts and reports the paper's
// relative *shape*: who wins, in which metric, by roughly what factor.
//
// Error contract: every table/figure method returns the first flow or
// benchmark-generation error instead of panicking; callers (cmd/ppa,
// tests) decide how to die.
//
// Nothing here forks: every table is a loop over designs that hands the
// suite's whole worker budget to one flow at a time (internal/flow is the
// only layer above the kernels that schedules work), so a Suite is not safe
// for concurrent use and the measured CPU columns are taken one design at a
// time at the full budget.
package experiments

import (
	"fmt"
	"slices"
	"time"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/flow"
	"ppaclust/internal/gnn"
	"ppaclust/internal/vpr"
)

// Suite runs experiments with shared caches (generated designs, trained
// model).
type Suite struct {
	// Fast restricts designs to small ones and shrinks the ML dataset; used
	// by tests. The full `ppa bench` run leaves it false.
	Fast bool
	// Seed drives all randomized stages.
	Seed int64
	// Workers is the goroutine budget handed to every flow: 0 = auto
	// (PPACLUST_WORKERS, else GOMAXPROCS), 1 = fully sequential. Flows are
	// bit-identical for any worker count, so table contents never depend on
	// Workers.
	Workers int

	benchCache map[string]*designs.Benchmark
	model      *gnn.Model
	training   trainingSet
	table2Rows []table2Row
}

// NewSuite returns an experiment suite whose flows use up to workers
// goroutines (0 = auto).
func NewSuite(fast bool, seed int64, workers int) *Suite {
	return &Suite{Fast: fast, Seed: seed, Workers: workers,
		benchCache: map[string]*designs.Benchmark{}}
}

// bench returns the suite's benchmark for a named spec, generating it on
// first use, or an error for an unknown name.
func (s *Suite) bench(name string) (*designs.Benchmark, error) {
	if b := s.benchCache[name]; b != nil {
		return b, nil
	}
	spec, ok := designs.Named(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown design %q", name)
	}
	if s.Fast {
		spec.TargetInsts /= 4
		if spec.TargetInsts < 400 {
			spec.TargetInsts = 400
		}
	}
	b := designs.Generate(spec)
	s.benchCache[name] = b
	return b, nil
}

func (s *Suite) smallDesigns() []string { return []string{"aes", "jpeg", "ariane"} }

func (s *Suite) allDesigns() []string {
	if s.Fast {
		return []string{"aes", "jpeg"}
	}
	return []string{"aes", "jpeg", "ariane", "bp", "mb", "mpg"}
}

// ---- Table 1 ----

// table1Row mirrors the paper's benchmark statistics table.
type table1Row struct {
	Design string
	Insts  int
	Nets   int
	TCPns  float64
}

// table1 generates the benchmark statistics.
func (s *Suite) table1() ([]table1Row, error) {
	var rows []table1Row
	for _, name := range s.allDesigns() {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, table1Row{
			Design: designs.PaperNames[name],
			Insts:  len(b.Design.Insts),
			Nets:   len(b.Design.Nets),
			TCPns:  b.Spec.ClockPeriod * 1e9,
		})
	}
	return rows, nil
}

// ---- Table 2 ----

// table2Row is one design's post-place comparison, normalized to the
// default flow (HPWL and CPU of blob placement [9] and of our flow), plus
// the per-stage wall-clock of the same "ours" run — the runtime breakdown
// the paper defers to its repository ("We separately give the runtime
// breakdown of our approach in [22]").
type table2Row struct {
	Design   string
	BlobHPWL float64
	BlobCPU  float64
	OursHPWL float64
	OursCPU  float64 // Total / DefaultPlace

	Cluster      time.Duration
	Shape        time.Duration
	SeedPlace    time.Duration
	IncrPlace    time.Duration
	Total        time.Duration // cluster + seed + incremental
	DefaultPlace time.Duration // flat-flow placement
}

// table2 compares post-place HPWL and placement CPU. Blob placement [9] is
// Louvain clustering + seeded placement with IO-weighted nets; ours is
// PPA-aware clustering + ML-accelerated V-P&R + seeded placement. The three
// flows of a design run one after another, each with the suite's whole
// worker budget, so nothing else competes for the cores while a flow is
// timed. The rows are measured once per suite: the Table-2 ratios and the
// runtime breakdown of one report come from the same pass.
func (s *Suite) table2() ([]table2Row, error) {
	if s.table2Rows != nil {
		return s.table2Rows, nil
	}
	model, err := s.Model()
	if err != nil {
		return nil, err
	}
	var rows []table2Row
	for _, name := range s.allDesigns() {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		def, err := flow.RunDefault(b, flow.Options{Seed: s.Seed, SkipRoute: true, Workers: s.Workers})
		if err != nil {
			return nil, err
		}
		blob, err := flow.Run(b, flow.Options{
			Seed: s.Seed, Method: flow.MethodLouvain, Shapes: flow.ShapeUniform,
			SkipRoute: true, Workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		ours, err := flow.Run(b, flow.Options{
			Seed: s.Seed, Method: flow.MethodPPAAware, Shapes: flow.ShapeVPRML,
			Model: model, SkipRoute: true, Workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		// CPU follows the paper's Table 2 definition: "cumulative runtimes
		// of clustering and seeded placement", normalized by the default
		// flow's placement runtime. Shape selection is reported separately
		// (its cost is the one-time-amortized ML path of Section 3.2).
		rows = append(rows, table2Row{
			Design:       designs.PaperNames[name],
			BlobHPWL:     blob.HPWL / def.HPWL,
			BlobCPU:      cpuRatio(blob.PlaceTime, def.PlaceTime),
			OursHPWL:     ours.HPWL / def.HPWL,
			OursCPU:      cpuRatio(ours.PlaceTime, def.PlaceTime),
			Cluster:      ours.ClusterTime,
			Shape:        ours.ShapeTime,
			SeedPlace:    ours.SeedPlaceTime,
			IncrPlace:    ours.IncrPlaceTime,
			Total:        ours.PlaceTime,
			DefaultPlace: def.PlaceTime,
		})
	}
	s.table2Rows = rows
	return rows, nil
}

func cpuRatio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---- Tables 3 and 4 ----

// ppaRow is one post-route PPA comparison row.
type ppaRow struct {
	Design string
	Flow   string
	RWL    float64 // normalized to the design's default flow
	WNSps  float64
	TNSns  float64
	PowerW float64
}

func makePPARow(name, label string, r *flow.Result, refRWL float64) ppaRow {
	return ppaRow{Design: designs.PaperNames[name], Flow: label, RWL: r.RoutedWL / refRWL,
		WNSps: r.WNS * 1e12, TNSns: r.TNS * 1e9, PowerW: r.Power}
}

// table3 is the OpenROAD post-route comparison (default vs ours) on the
// four routable designs.
func (s *Suite) table3() ([]ppaRow, error) {
	names := []string{"aes", "jpeg", "ariane", "bp"}
	if s.Fast {
		names = []string{"aes", "jpeg"}
	}
	return s.postRouteCompare(names, flow.ToolOpenROAD)
}

// table4 is the Innovus-mode post-route comparison on all six designs.
func (s *Suite) table4() ([]ppaRow, error) {
	return s.postRouteCompare(s.allDesigns(), flow.ToolInnovus)
}

func (s *Suite) postRouteCompare(names []string, tool flow.Tool) ([]ppaRow, error) {
	model, err := s.Model()
	if err != nil {
		return nil, err
	}
	var rows []ppaRow
	for _, name := range names {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		def, err := flow.RunDefault(b, flow.Options{Seed: s.Seed, Tool: tool, Workers: s.Workers})
		if err != nil {
			return nil, err
		}
		ours, err := flow.Run(b, flow.Options{
			Seed: s.Seed, Tool: tool,
			Method: flow.MethodPPAAware, Shapes: flow.ShapeVPRML, Model: model,
			Workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, makePPARow(name, "Default", def, def.RoutedWL), makePPARow(name, "Ours", ours, def.RoutedWL))
	}
	return rows, nil
}

// ---- Table 5 ----

// table5 compares clustering methods (Leiden, MFC, ours) inside the same
// overall flow on the three small designs, OpenROAD mode.
func (s *Suite) table5() ([]ppaRow, error) {
	model, err := s.Model()
	if err != nil {
		return nil, err
	}
	names := s.smallDesigns()
	if s.Fast {
		names = names[:2]
	}
	var rows []ppaRow
	for _, name := range names {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		def, err := flow.RunDefault(b, flow.Options{Seed: s.Seed, Workers: s.Workers})
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			label  string
			method flow.Method
		}{
			{"Leiden", flow.MethodLeiden},
			{"MFC", flow.MethodMFC},
			{"Ours", flow.MethodPPAAware},
		} {
			r, err := flow.Run(b, flow.Options{
				Seed: s.Seed, Method: m.method,
				Shapes: flow.ShapeVPRML, Model: model, Workers: s.Workers,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, makePPARow(name, m.label, r, def.RoutedWL))
		}
	}
	return rows, nil
}

// ---- Table 6 ----

// table6 compares shape-assignment strategies (Random, Uniform, V-P&R_ML)
// in Innovus mode; rWL is normalized to the Uniform arm per the paper.
func (s *Suite) table6() ([]ppaRow, error) {
	model, err := s.Model()
	if err != nil {
		return nil, err
	}
	names := []string{"ariane", "jpeg", "mb"}
	if s.Fast {
		names = []string{"aes", "jpeg"}
	}
	arms := []struct {
		label string
		mode  flow.ShapeMode
	}{
		{"Random", flow.ShapeRandom},
		{"Uniform", flow.ShapeUniform},
		{"V-P&R_ML", flow.ShapeVPRML},
	}
	// Average each arm over a few seeds: at reproduction scale the
	// shape-selection effect is second-order, so single runs are noisy.
	seeds := []int64{s.Seed, s.Seed + 1}
	var rows []ppaRow
	for _, name := range names {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		results := make([]ppaRow, len(arms))
		for a, arm := range arms {
			for _, seed := range seeds {
				r, err := flow.Run(b, flow.Options{
					Seed: seed, Tool: flow.ToolInnovus,
					Method: flow.MethodPPAAware, Shapes: arm.mode, Model: model,
					Workers: s.Workers,
				})
				if err != nil {
					return nil, err
				}
				results[a].RWL += r.RoutedWL / float64(len(seeds))
				results[a].WNSps += r.WNS * 1e12 / float64(len(seeds))
				results[a].TNSns += r.TNS * 1e9 / float64(len(seeds))
				results[a].PowerW += r.Power / float64(len(seeds))
			}
		}
		uniformRWL := results[1].RWL
		for a, arm := range arms {
			results[a].Design, results[a].Flow = designs.PaperNames[name], arm.label
			results[a].RWL /= uniformRWL
		}
		rows = append(rows, results...)
	}
	return rows, nil
}

// ---- Figure 5 ----

// figure5Point is one sweep point: a hyperparameter multiplier and the mean
// normalized post-place HPWL over the sweep designs (1.0 = default).
type figure5Point struct {
	Param      string
	Multiplier float64
	Score      float64
}

// figure5Params are the swept hyperparameters, in row order.
var figure5Params = []string{"alpha", "beta", "gamma", "mu"}

// figure5 sweeps multipliers 1..6 on each of alpha, beta, gamma, mu,
// normalizing post-place HPWL to the default-multiplier run per design.
func (s *Suite) figure5() ([]figure5Point, error) {
	names := s.smallDesigns()
	mults := []float64{1, 2, 3, 4, 5, 6}
	if s.Fast {
		names = names[:1]
		mults = []float64{1, 2, 3}
	}
	defaults := flow.Options{Seed: s.Seed, Shapes: flow.ShapeUniform, SkipRoute: true, Workers: s.Workers}
	hpwl := func(name string, opt flow.Options) (float64, error) {
		b, err := s.bench(name)
		if err != nil {
			return 0, err
		}
		r, err := flow.Run(b, opt)
		if err != nil {
			return 0, err
		}
		return r.HPWL, nil
	}
	base := make([]float64, len(names))
	for i, name := range names {
		v, err := hpwl(name, defaults)
		if err != nil {
			return nil, err
		}
		base[i] = v
	}
	var pts []figure5Point
	for _, param := range figure5Params {
		for _, mult := range mults {
			opt := defaults
			switch param {
			case "alpha":
				opt.Alpha = mult
			case "beta":
				opt.Beta = mult
			case "gamma":
				opt.Gamma = mult
			case "mu":
				opt.Mu = 2 * mult
			}
			var sum float64
			for i, name := range names {
				v, err := hpwl(name, opt)
				if err != nil {
					return nil, err
				}
				sum += v / base[i]
			}
			pts = append(pts, figure5Point{Param: param, Multiplier: mult, Score: sum / float64(len(names))})
		}
	}
	return pts, nil
}

// ---- Section 4.4: GNN model quality ----

// gnnReport carries the model-quality metrics of Section 4.4.
type gnnReport struct {
	Train, Val, Test gnn.Metrics
	LabelMin         float64
	LabelMax         float64
	LabelMean        float64
	Samples          int
	TrainTime        time.Duration
	SpeedupX         float64 // exact V-P&R sweep time / PredictBestShape time, over the dataset's clusters
}

// trainingSet is what training leaves behind for gnnMetrics: the labelled
// samples, the cluster graphs they were drawn from, and the two timers.
type trainingSet struct {
	samples   []gnn.Sample
	graphs    []*gnn.GraphInput
	exactTime time.Duration // the exact 20-shape V-P&R sweeps that labelled the samples
	fitTime   time.Duration
}

// split is the deterministic 70/15/15 split by sample index stride.
func (ts *trainingSet) split() (train, val, test []gnn.Sample) {
	for i, smp := range ts.samples {
		switch i % 20 {
		case 17, 18:
			val = append(val, smp)
		case 19, 16:
			test = append(test, smp)
		default:
			train = append(train, smp)
		}
	}
	return train, val, test
}

// Model returns the trained Total Cost predictor, training it on first use.
// It only trains; the Section 4.4 report is gnnMetrics' job.
func (s *Suite) Model() (*gnn.Model, error) {
	if s.model == nil {
		if err := s.trainModel(); err != nil {
			return nil, err
		}
	}
	return s.model, nil
}

// gnnMetrics computes the Section 4.4 quality report from the training set
// (training on demand).
func (s *Suite) gnnMetrics() (gnnReport, error) {
	model, err := s.Model()
	if err != nil {
		return gnnReport{}, err
	}
	ts := &s.training
	train, val, test := ts.split()
	rep := gnnReport{
		Train:     model.Evaluate(train),
		Val:       model.Evaluate(val),
		Test:      model.Evaluate(test),
		Samples:   len(ts.samples),
		TrainTime: ts.fitTime,
	}
	rep.LabelMin, rep.LabelMax, rep.LabelMean = labelStats(ts.samples)
	// Inference speedup on the path the flow runs: the exact 20-shape sweep
	// recorded while labelling against PredictBestShape on the same clusters.
	// The predictions take tens of milliseconds, so one timing is mostly
	// noise: take the median of speedupRuns.
	var runs [speedupRuns]time.Duration
	for r := range runs {
		t0 := time.Now()
		for _, g := range ts.graphs {
			model.PredictBestShapeWorkers(g, s.Workers)
		}
		runs[r] = time.Since(t0)
	}
	slices.Sort(runs[:])
	if predictTime := runs[speedupRuns/2]; predictTime > 0 {
		rep.SpeedupX = float64(ts.exactTime) / float64(predictTime)
	}
	return rep, nil
}

// speedupRuns is the number of timed PredictBestShape sweeps whose median
// the Section 4.4 speedup divides by.
const speedupRuns = 5

// trainModel builds the V-P&R dataset by perturbing clustering seeds on the
// small designs (the paper perturbs seed/coarsening hyperparameters), labels
// every (cluster, shape) pair with exact V-P&R, and fits the GNN.
func (s *Suite) trainModel() error {
	nSeeds := 4
	minClusterInsts := 25
	if s.Fast {
		nSeeds = 1
	}
	var ts trainingSet
	names := s.smallDesigns()
	if s.Fast {
		names = names[:1]
	}
	for _, name := range names {
		b, err := s.bench(name)
		if err != nil {
			return err
		}
		view := b.Design.ToHypergraph()
		for k := 0; k < nSeeds; k++ {
			res := cluster.MultilevelFC(view.H, cluster.Options{
				Seed:           s.Seed + int64(100*k),
				TargetClusters: 10 + 6*k,
			})
			members := make([][]int, res.NumClusters)
			for v, c := range res.Assign {
				members[c] = append(members[c], v)
			}
			for c := range members {
				if len(members[c]) < minClusterInsts || len(members[c]) > 400 {
					continue
				}
				sub, err := vpr.InduceSubNetlist(b.Design, members[c])
				if err != nil {
					continue
				}
				g := gnn.BuildGraphInput(sub, features.Options{Seed: s.Seed})
				ts.graphs = append(ts.graphs, g)
				t0 := time.Now()
				_, evals := vpr.BestShape(sub, vpr.Runner{Opt: vpr.Options{Seed: s.Seed, Workers: s.Workers}})
				ts.exactTime += time.Since(t0)
				for _, ev := range evals {
					ts.samples = append(ts.samples, gnn.Sample{Graph: g, Shape: ev.Shape, Label: ev.TotalCost})
				}
			}
		}
	}
	train, _, _ := ts.split()
	model := gnn.NewModel(s.Seed)
	epochs := 10
	if s.Fast {
		epochs = 3
	}
	t0 := time.Now()
	model.Fit(train, gnn.TrainOptions{Epochs: epochs, LR: 1.5e-3, Seed: s.Seed, Workers: s.Workers})
	ts.fitTime = time.Since(t0)
	s.model, s.training = model, ts
	return nil
}

func labelStats(samples []gnn.Sample) (min, max, mean float64) {
	if len(samples) == 0 {
		return
	}
	min, max = samples[0].Label, samples[0].Label
	var sum float64
	for _, s := range samples {
		if s.Label < min {
			min = s.Label
		}
		if s.Label > max {
			max = s.Label
		}
		sum += s.Label
	}
	return min, max, sum / float64(len(samples))
}
