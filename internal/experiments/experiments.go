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
// benchmark-generation error instead of panicking; callers (cmd/ppabench,
// tests) decide how to die. Parallel fan-outs collect per-slot errors and
// surface the lowest-index one, so the reported error is deterministic for
// any worker count.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/flow"
	"ppaclust/internal/gnn"
	"ppaclust/internal/par"
	"ppaclust/internal/vpr"
)

// Suite runs experiments with shared caches (generated designs, trained
// model).
type Suite struct {
	// Fast restricts designs to small ones and shrinks the ML dataset; used
	// by tests. The full ppabench run leaves it false.
	Fast bool
	// Seed drives all randomized stages.
	Seed int64
	// Workers bounds the suite's total goroutine budget: 0 = auto
	// (PPACLUST_WORKERS, else GOMAXPROCS), 1 = fully sequential. Tables fan
	// out across designs; every flow underneath is bit-identical for any
	// worker count, so table contents never depend on Workers.
	Workers int

	benchMu    sync.Mutex
	benchCache map[string]*benchEntry
	modelOnce  sync.Once
	model      *gnn.Model
	modelStats GNNReport
	modelErr   error
}

type benchEntry struct {
	once sync.Once
	b    *designs.Benchmark
	err  error
}

// NewSuite returns an experiment suite using up to workers goroutines
// (0 = auto).
func NewSuite(fast bool, seed int64, workers int) *Suite {
	return &Suite{Fast: fast, Seed: seed, Workers: workers,
		benchCache: map[string]*benchEntry{}}
}

// Bench returns the cached benchmark for a named spec, or an error for an
// unknown name. It is safe for concurrent use; each design is generated
// exactly once per suite.
func (s *Suite) Bench(name string) (*designs.Benchmark, error) {
	s.benchMu.Lock()
	e, ok := s.benchCache[name]
	if !ok {
		e = &benchEntry{}
		s.benchCache[name] = e
	}
	s.benchMu.Unlock()
	e.once.Do(func() {
		spec, ok := designs.Named(name)
		if !ok {
			e.err = fmt.Errorf("experiments: unknown design %q", name)
			return
		}
		if s.Fast {
			spec.TargetInsts /= 4
			if spec.TargetInsts < 400 {
				spec.TargetInsts = 400
			}
		}
		e.b = designs.Generate(spec)
	})
	return e.b, e.err
}

// mapE fans fn out over [0, n) like par.Map and joins per-slot errors: the
// lowest-index error wins, so the surfaced failure is deterministic for any
// worker count.
func mapE[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	type slot struct {
		v   T
		err error
	}
	out := par.Map(workers, n, func(i int) slot {
		v, err := fn(i)
		return slot{v, err}
	})
	vals := make([]T, n)
	for i, o := range out {
		if o.err != nil {
			return nil, o.err
		}
		vals[i] = o.v
	}
	return vals, nil
}

// runWorkers splits the worker budget between a table's design-level fan-out
// and the flow kernels underneath: with several designs in flight, the
// fan-out owns the parallelism and each flow runs sequentially; a single
// design hands the whole budget to the flow.
func (s *Suite) runWorkers(items int) int {
	w := par.Workers(s.Workers)
	if items > 1 && w > 1 {
		return 1
	}
	return w
}

func (s *Suite) smallDesigns() []string { return []string{"aes", "jpeg", "ariane"} }

func (s *Suite) allDesigns() []string {
	if s.Fast {
		return []string{"aes", "jpeg"}
	}
	return []string{"aes", "jpeg", "ariane", "bp", "mb", "mpg"}
}

// ---- Table 1 ----

// Table1Row mirrors the paper's benchmark statistics table.
type Table1Row struct {
	Design string
	Insts  int
	Nets   int
	TCPns  float64
}

// Table1 generates the benchmark statistics, generating designs in parallel.
func (s *Suite) Table1() ([]Table1Row, error) {
	names := s.allDesigns()
	return mapE(par.Workers(s.Workers), len(names), func(i int) (Table1Row, error) {
		b, err := s.Bench(names[i])
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Design: designs.PaperNames[names[i]],
			Insts:  len(b.Design.Insts),
			Nets:   len(b.Design.Nets),
			TCPns:  b.Spec.ClockPeriod * 1e9,
		}, nil
	})
}

// ---- Table 2 ----

// Table2Row is one design's post-place comparison, normalized to the
// default flow (HPWL and CPU of blob placement [9] and of our flow).
type Table2Row struct {
	Design   string
	BlobHPWL float64
	BlobCPU  float64
	OursHPWL float64
	OursCPU  float64
}

// Table2 compares post-place HPWL and placement CPU. Blob placement [9] is
// Louvain clustering + seeded placement with IO-weighted nets; ours is
// PPA-aware clustering + ML-accelerated V-P&R + seeded placement.
func (s *Suite) Table2() ([]Table2Row, error) {
	model, err := s.Model()
	if err != nil {
		return nil, err
	}
	names := s.allDesigns()
	fw := s.runWorkers(len(names))
	return mapE(par.Workers(s.Workers), len(names), func(i int) (Table2Row, error) {
		b, err := s.Bench(names[i])
		if err != nil {
			return Table2Row{}, err
		}
		def, err := flow.RunDefault(b, flow.Options{Seed: s.Seed, SkipRoute: true, Workers: fw})
		if err != nil {
			return Table2Row{}, err
		}
		blob, err := flow.Run(b, flow.Options{
			Seed: s.Seed, Method: flow.MethodLouvain, Shapes: flow.ShapeUniform,
			SkipRoute: true, Workers: fw,
		})
		if err != nil {
			return Table2Row{}, err
		}
		ours, err := flow.Run(b, flow.Options{
			Seed: s.Seed, Method: flow.MethodPPAAware, Shapes: flow.ShapeVPRML,
			Model: model, SkipRoute: true, Workers: fw,
		})
		if err != nil {
			return Table2Row{}, err
		}
		// CPU follows the paper's Table 2 definition: "cumulative runtimes
		// of clustering and seeded placement", normalized by the default
		// flow's placement runtime. Shape selection is reported separately
		// (its cost is the one-time-amortized ML path of Section 3.2).
		return Table2Row{
			Design:   designs.PaperNames[names[i]],
			BlobHPWL: blob.HPWL / def.HPWL,
			BlobCPU:  cpuRatio(blob.PlaceTime, def.PlaceTime),
			OursHPWL: ours.HPWL / def.HPWL,
			OursCPU:  cpuRatio(ours.PlaceTime, def.PlaceTime),
		}, nil
	})
}

func cpuRatio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---- Tables 3 and 4 ----

// PPARow is one post-route PPA comparison row.
type PPARow struct {
	Design string
	Flow   string
	RWL    float64 // normalized to the design's default flow
	WNSps  float64
	TNSns  float64
	PowerW float64
}

// Table3 is the OpenROAD post-route comparison (default vs ours) on the
// four routable designs.
func (s *Suite) Table3() ([]PPARow, error) {
	names := []string{"aes", "jpeg", "ariane", "bp"}
	if s.Fast {
		names = []string{"aes", "jpeg"}
	}
	return s.postRouteCompare(names, flow.ToolOpenROAD)
}

// Table4 is the Innovus-mode post-route comparison on all six designs.
func (s *Suite) Table4() ([]PPARow, error) {
	return s.postRouteCompare(s.allDesigns(), flow.ToolInnovus)
}

func (s *Suite) postRouteCompare(names []string, tool flow.Tool) ([]PPARow, error) {
	model, err := s.Model()
	if err != nil {
		return nil, err
	}
	fw := s.runWorkers(len(names))
	groups, err := mapE(par.Workers(s.Workers), len(names), func(i int) ([2]PPARow, error) {
		name := names[i]
		b, err := s.Bench(name)
		if err != nil {
			return [2]PPARow{}, err
		}
		def, err := flow.RunDefault(b, flow.Options{Seed: s.Seed, Tool: tool, Workers: fw})
		if err != nil {
			return [2]PPARow{}, err
		}
		ours, err := flow.Run(b, flow.Options{
			Seed: s.Seed, Tool: tool,
			Method: flow.MethodPPAAware, Shapes: flow.ShapeVPRML, Model: model,
			Workers: fw,
		})
		if err != nil {
			return [2]PPARow{}, err
		}
		return [2]PPARow{
			{Design: designs.PaperNames[name], Flow: "Default", RWL: 1.0,
				WNSps: def.WNS * 1e12, TNSns: def.TNS * 1e9, PowerW: def.Power},
			{Design: designs.PaperNames[name], Flow: "Ours", RWL: ours.RoutedWL / def.RoutedWL,
				WNSps: ours.WNS * 1e12, TNSns: ours.TNS * 1e9, PowerW: ours.Power},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []PPARow
	for _, g := range groups {
		rows = append(rows, g[0], g[1])
	}
	return rows, nil
}

// ---- Table 5 ----

// Table5 compares clustering methods (Leiden, MFC, ours) inside the same
// overall flow on the three small designs, OpenROAD mode.
func (s *Suite) Table5() ([]PPARow, error) {
	model, err := s.Model()
	if err != nil {
		return nil, err
	}
	names := s.smallDesigns()
	if s.Fast {
		names = names[:2]
	}
	fw := s.runWorkers(len(names))
	groups, err := mapE(par.Workers(s.Workers), len(names), func(i int) ([]PPARow, error) {
		name := names[i]
		b, err := s.Bench(name)
		if err != nil {
			return nil, err
		}
		def, err := flow.RunDefault(b, flow.Options{Seed: s.Seed, Workers: fw})
		if err != nil {
			return nil, err
		}
		var rows []PPARow
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
				Shapes: flow.ShapeVPRML, Model: model, Workers: fw,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, PPARow{
				Design: designs.PaperNames[name], Flow: m.label,
				RWL:   r.RoutedWL / def.RoutedWL,
				WNSps: r.WNS * 1e12, TNSns: r.TNS * 1e9, PowerW: r.Power,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []PPARow
	for _, g := range groups {
		rows = append(rows, g...)
	}
	return rows, nil
}

// ---- Table 6 ----

// Table6 compares shape-assignment strategies (Random, Uniform, V-P&R_ML)
// in Innovus mode; rWL is normalized to the Uniform arm per the paper.
func (s *Suite) Table6() ([]PPARow, error) {
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
	// Fan out over (design, arm, seed) triples — the finest independent unit.
	type job struct {
		name string
		arm  int
		seed int64
	}
	var jobs []job
	for _, name := range names {
		for a := range arms {
			for _, seed := range seeds {
				jobs = append(jobs, job{name, a, seed})
			}
		}
	}
	fw := s.runWorkers(len(jobs))
	runs, err := mapE(par.Workers(s.Workers), len(jobs), func(i int) (*flow.Result, error) {
		j := jobs[i]
		b, err := s.Bench(j.name)
		if err != nil {
			return nil, err
		}
		return flow.Run(b, flow.Options{
			Seed: j.seed, Tool: flow.ToolInnovus,
			Method: flow.MethodPPAAware, Shapes: arms[j.arm].mode, Model: model,
			Workers: fw,
		})
	})
	if err != nil {
		return nil, err
	}
	var rows []PPARow
	for _, name := range names {
		type acc struct{ rwl, wns, tns, pwr float64 }
		results := make([]acc, len(arms))
		for ji, j := range jobs {
			if j.name != name {
				continue
			}
			r := runs[ji]
			results[j.arm].rwl += r.RoutedWL / float64(len(seeds))
			results[j.arm].wns += r.WNS * 1e12 / float64(len(seeds))
			results[j.arm].tns += r.TNS * 1e9 / float64(len(seeds))
			results[j.arm].pwr += r.Power / float64(len(seeds))
		}
		uniform := results[1]
		for i, a := range arms {
			rows = append(rows, PPARow{
				Design: designs.PaperNames[name], Flow: a.label,
				RWL:   results[i].rwl / uniform.rwl,
				WNSps: results[i].wns, TNSns: results[i].tns,
				PowerW: results[i].pwr,
			})
		}
	}
	return rows, nil
}

// ---- Figure 5 ----

// Figure5Point is one sweep point: a hyperparameter multiplier and the mean
// normalized post-place HPWL over the sweep designs (1.0 = default).
type Figure5Point struct {
	Param      string
	Multiplier float64
	Score      float64
}

// Figure5 sweeps multipliers 1..6 on each of alpha, beta, gamma, mu,
// normalizing post-place HPWL to the default-multiplier run per design.
func (s *Suite) Figure5() ([]Figure5Point, error) {
	names := s.smallDesigns()
	mults := []float64{1, 2, 3, 4, 5, 6}
	if s.Fast {
		names = names[:1]
		mults = []float64{1, 2, 3}
	}
	// Sweep points are independent; fan out over (param, multiplier) pairs.
	type sweep struct {
		param string
		mult  float64
	}
	var pairs []sweep
	for _, param := range []string{"alpha", "beta", "gamma", "mu"} {
		for _, m := range mults {
			pairs = append(pairs, sweep{param, m})
		}
	}
	fw := s.runWorkers(len(pairs))
	baseVals, err := mapE(par.Workers(s.Workers), len(names), func(i int) (float64, error) {
		b, err := s.Bench(names[i])
		if err != nil {
			return 0, err
		}
		r, err := flow.Run(b, flow.Options{Seed: s.Seed, Shapes: flow.ShapeUniform,
			SkipRoute: true, Workers: fw})
		if err != nil {
			return 0, err
		}
		return r.HPWL, nil
	})
	if err != nil {
		return nil, err
	}
	base := map[string]float64{}
	for i, name := range names {
		base[name] = baseVals[i]
	}
	return mapE(par.Workers(s.Workers), len(pairs), func(i int) (Figure5Point, error) {
		pr := pairs[i]
		var sum float64
		for _, name := range names {
			b, err := s.Bench(name)
			if err != nil {
				return Figure5Point{}, err
			}
			opt := flow.Options{Seed: s.Seed, Shapes: flow.ShapeUniform, SkipRoute: true,
				Workers: fw}
			switch pr.param {
			case "alpha":
				opt.Alpha = pr.mult
			case "beta":
				opt.Beta = pr.mult
			case "gamma":
				opt.Gamma = pr.mult
			case "mu":
				opt.Mu = 2 * pr.mult
			}
			r, err := flow.Run(b, opt)
			if err != nil {
				return Figure5Point{}, err
			}
			sum += r.HPWL / base[name]
		}
		return Figure5Point{Param: pr.param, Multiplier: pr.mult, Score: sum / float64(len(names))}, nil
	})
}

// ---- Section 4.4: GNN model quality ----

// GNNReport carries the model-quality metrics of Section 4.4.
type GNNReport struct {
	Train, Val, Test gnn.Metrics
	LabelMin         float64
	LabelMax         float64
	LabelMean        float64
	Samples          int
	TrainTime        time.Duration
	SpeedupX         float64 // exact V-P&R sweep time / PredictBestShape time, over the dataset's clusters
}

// Model returns the trained Total Cost predictor, training it on first use.
// It is safe for concurrent use; training happens exactly once per suite.
func (s *Suite) Model() (*gnn.Model, error) {
	s.modelOnce.Do(func() {
		s.model, s.modelStats, s.modelErr = s.trainModel()
	})
	return s.model, s.modelErr
}

// GNNMetrics returns the Section 4.4 quality report (training on demand).
func (s *Suite) GNNMetrics() (GNNReport, error) {
	if _, err := s.Model(); err != nil {
		return GNNReport{}, err
	}
	return s.modelStats, nil
}

// trainModel builds the V-P&R dataset by perturbing clustering seeds on the
// small designs (the paper perturbs seed/coarsening hyperparameters), labels
// every (cluster, shape) pair with exact V-P&R, and fits the GNN.
func (s *Suite) trainModel() (*gnn.Model, GNNReport, error) {
	nSeeds := 4
	minClusterInsts := 25
	if s.Fast {
		nSeeds = 1
	}
	var samples []gnn.Sample
	var graphs []*gnn.GraphInput
	var exactTime time.Duration
	names := s.smallDesigns()
	if s.Fast {
		names = names[:1]
	}
	for _, name := range names {
		b, err := s.Bench(name)
		if err != nil {
			return nil, GNNReport{}, err
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
				graphs = append(graphs, g)
				t0 := time.Now()
				_, evals := vpr.BestShape(sub, vpr.Runner{Opt: vpr.Options{Seed: s.Seed, Workers: s.Workers}})
				exactTime += time.Since(t0)
				for _, ev := range evals {
					samples = append(samples, gnn.Sample{Graph: g, Shape: ev.Shape, Label: ev.TotalCost})
				}
			}
		}
	}
	// Deterministic split 70/15/15 by sample index stride.
	var train, val, test []gnn.Sample
	for i, smp := range samples {
		switch i % 20 {
		case 17, 18:
			val = append(val, smp)
		case 19, 16:
			test = append(test, smp)
		default:
			train = append(train, smp)
		}
	}
	model := gnn.NewModel(s.Seed)
	epochs := 10
	if s.Fast {
		epochs = 3
	}
	t0 := time.Now()
	model.Fit(train, gnn.TrainOptions{Epochs: epochs, LR: 1.5e-3, Seed: s.Seed})
	trainTime := time.Since(t0)

	rep := GNNReport{
		Train:     model.Evaluate(train),
		Val:       model.Evaluate(val),
		Test:      model.Evaluate(test),
		Samples:   len(samples),
		TrainTime: trainTime,
	}
	rep.LabelMin, rep.LabelMax, rep.LabelMean = labelStats(samples)
	// Inference speedup on the path the flow runs: the exact 20-shape sweep
	// recorded above against PredictBestShape on the same clusters.
	t0 = time.Now()
	for _, g := range graphs {
		model.PredictBestShapeWorkers(g, s.Workers)
	}
	if predictTime := time.Since(t0); predictTime > 0 {
		rep.SpeedupX = float64(exactTime) / float64(predictTime)
	}
	return model, rep, nil
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

// ---- rendering ----

// FprintTable renders rows of any table type as an aligned text table.
func FprintTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}
