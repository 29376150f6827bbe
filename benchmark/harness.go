package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/experiments"
	"ppaclust/internal/flow"
	"ppaclust/internal/gnn"
	"ppaclust/internal/lef"
	"ppaclust/internal/liberty"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
	"ppaclust/internal/sdc"
	"ppaclust/internal/verilog"
)

// config is one run of one workload.
type config struct {
	Workload workload
	Seed     int64
	// Reps fixes the number of untraced repetitions; 0 repeats until Seconds
	// of measuring have passed (always finishing at least one).
	Reps    int
	Seconds float64
	// Trace adds the traced replay after the untraced repetitions.
	Trace   bool
	Smoke   bool
	Workers int
	WorkDir string
}

// benchFiles is one generated design as the program under test sees it:
// five files, plus the generator's counts the loader is checked against.
type benchFiles struct {
	Name       string
	Files      flow.Files
	Insts      int
	Nets       int
	Pins       int
	InputBytes int64
}

// quality holds the fields of one flow result that the determinism contract
// makes bit-identical run to run.
type quality struct {
	HPWL, RWL, Power, WNS, TNS float64
	Overflow                   int
}

func qualityOf(r *flow.Result) quality {
	return quality{HPWL: r.HPWL, RWL: r.RoutedWL, Power: r.Power, WNS: r.WNS, TNS: r.TNS, Overflow: r.Overflow}
}

func (q quality) bitEqual(o quality) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return eq(q.HPWL, o.HPWL) && eq(q.RWL, o.RWL) && eq(q.Power, o.Power) &&
		eq(q.WNS, o.WNS) && eq(q.TNS, o.TNS) && q.Overflow == o.Overflow
}

func (q quality) finite() bool {
	for _, v := range []float64{q.HPWL, q.RWL, q.Power, q.WNS, q.TNS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ops counts operations: one LoadBenchmark, Run or RunDefault call each. An
// operation fails if it errors, panics or fails an output check.
type ops struct {
	attempted int
	failures  []string
}

func (o *ops) record(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.fail(what, err)
		return false
	}
	return true
}

// fail marks an already counted operation as failed by a later check.
func (o *ops) fail(what string, err error) {
	o.failures = append(o.failures, what+": "+err.Error())
}

// guard turns a panic inside the program under test into a failed operation.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

func writeFile(path string, fn func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func pinCount(d *netlist.Design) int {
	n := 0
	for _, net := range d.Nets {
		n += len(net.Pins)
	}
	return n
}

// setUp generates the workload's designs, writes each as the five-file set
// and, where the flow needs it, trains the shape model. The program under
// test only ever sees the files.
func setUp(cfg config, dir string) ([]benchFiles, *gnn.Model, float64, error) {
	var out []benchFiles
	for _, spec := range cfg.Workload.specs(cfg.Seed, cfg.Smoke) {
		b := designs.GenerateWorkers(spec, cfg.Workers)
		base := filepath.Join(dir, spec.Name)
		bf := benchFiles{Name: spec.Name, Insts: len(b.Design.Insts), Nets: len(b.Design.Nets), Pins: pinCount(b.Design),
			Files: flow.Files{Verilog: base + ".v", DEF: base + ".def", SDC: base + ".sdc", Liberty: base + ".lib", LEF: base + ".lef"}}
		writers := []struct {
			path string
			fn   func(f *os.File) error
		}{
			{bf.Files.Verilog, func(f *os.File) error { return verilog.Write(f, b.Design) }},
			{bf.Files.DEF, func(f *os.File) error { return def.Write(f, b.Design) }},
			{bf.Files.SDC, func(f *os.File) error { return sdc.Write(f, b.Cons) }},
			{bf.Files.Liberty, func(f *os.File) error { return liberty.Write(f, b.Design.Lib) }},
			{bf.Files.LEF, func(f *os.File) error { return lef.Write(f, b.Design.Lib) }},
		}
		for _, w := range writers {
			if err := writeFile(w.path, w.fn); err != nil {
				return nil, nil, 0, err
			}
			st, err := os.Stat(w.path)
			if err != nil {
				return nil, nil, 0, err
			}
			bf.InputBytes += st.Size()
		}
		out = append(out, bf)
	}
	if cfg.Workload.Shapes != flow.ShapeVPRML {
		return out, nil, 0, nil
	}
	model, fitS, err := trainModel(cfg)
	return out, model, fitS, err
}

// trainModel fits the shape predictor the way the experiment suite does and
// returns the seconds it took. The smoke scale skips the fit: inference cost
// does not depend on the weights.
func trainModel(cfg config) (*gnn.Model, float64, error) {
	t0 := time.Now()
	if cfg.Smoke {
		return gnn.NewModel(cfg.Seed), time.Since(t0).Seconds(), nil
	}
	model, err := experiments.NewSuite(true, cfg.Seed, cfg.Workers).Model()
	return model, time.Since(t0).Seconds(), err
}

func (cfg config) flowOptions(model *gnn.Model) flow.Options {
	return flow.Options{Tool: cfg.Workload.Tool, Shapes: cfg.Workload.Shapes, Model: model,
		Seed: cfg.Seed, Workers: cfg.Workers}
}

// repSample is one repetition of load -> clustered -> default over the
// workload's designs: times are summed over designs (per-call medians where
// a call is repeated), quality is kept per design.
type repSample struct {
	loadS, clusteredS, defaultS float64
	clustered, deflt            []quality
}

// legalTolerance is the share of instances place.CheckLegal may report
// before a flow result counts as illegal. It is not zero because the default
// flow is not clean at this commit: its Tetris legalizer leaves 0.02-0.25% of
// the cells of a >=100k-cell design off-row or overlapping (the clustered
// flow leaves none). The exact counts are the per-layer metrics
// place.flat_illegal_cells and place.incr_illegal_cells.
const legalTolerance = 0.01

// illegalCells totals place.CheckLegal's violation counts.
func illegalCells(d *netlist.Design) int {
	rep := place.CheckLegal(d)
	return rep.OffRow + rep.OffSite + rep.Overlaps + rep.Outside
}

// checkResult applies the output checks to one flow result.
func checkResult(r *flow.Result) error {
	if r.Placed == nil {
		return fmt.Errorf("no placed design")
	}
	if n := illegalCells(r.Placed); float64(n) > legalTolerance*float64(len(r.Placed.Insts)) {
		return fmt.Errorf("illegal placement: %+v", place.CheckLegal(r.Placed))
	}
	if h := r.Placed.HPWL(); math.Float64bits(h) != math.Float64bits(r.HPWL) {
		return fmt.Errorf("Result.HPWL %v differs from Placed.HPWL() %v", r.HPWL, h)
	}
	if !qualityOf(r).finite() {
		return fmt.Errorf("non-finite result: %+v", qualityOf(r))
	}
	return nil
}

// timeOp times one guarded operation of the program under test, then applies
// its output check outside the timed interval and records the operation.
func timeOp(o *ops, what string, fn, check func() error) (float64, bool) {
	runtime.GC()
	t0 := time.Now()
	err := guard(fn)
	sec := time.Since(t0).Seconds()
	if err == nil {
		err = guard(check)
	}
	return sec, o.record(what, err)
}

// repetition runs load -> clustered -> default once per design, strictly one
// operation at a time, with a GC between calls. It returns the loaded
// benchmarks of the last load so a traced replay can follow on them.
func repetition(cfg config, files []benchFiles, model *gnn.Model, o *ops) (repSample, []*designs.Benchmark) {
	var s repSample
	w := cfg.Workload
	opt := cfg.flowOptions(model)
	loaded := make([]*designs.Benchmark, len(files))
	for i, bf := range files {
		calls := make([]float64, 0, max(w.LoadRepeat, w.DefaultRepeat))
		for k := 0; k < w.LoadRepeat; k++ {
			var b *designs.Benchmark
			sec, ok := timeOp(o, "load "+bf.Name, func() (err error) {
				b, err = flow.LoadBenchmark(bf.Files)
				return err
			}, func() error {
				if n, m, p := len(b.Design.Insts), len(b.Design.Nets), pinCount(b.Design); n != bf.Insts || m != bf.Nets || p != bf.Pins {
					return fmt.Errorf("loaded %d insts/%d nets/%d pins, generated %d/%d/%d", n, m, p, bf.Insts, bf.Nets, bf.Pins)
				}
				return nil
			})
			calls = append(calls, sec)
			if ok {
				loaded[i] = b
			}
		}
		s.loadS += median(calls)
		if loaded[i] == nil {
			continue
		}

		var res *flow.Result
		sec, ok := timeOp(o, "clustered "+bf.Name, func() (err error) {
			res, err = flow.Run(loaded[i], opt)
			return err
		}, func() error { return checkResult(res) })
		s.clusteredS += sec
		if ok {
			s.clustered = append(s.clustered, qualityOf(res))
		}

		// The repeats of a short default flow run at flow seeds seed, seed+1,
		// ...: its iteration count, and so its time, follows the seed's
		// jitter by +-15%, and the median over seeds is what holds from one
		// design to the next. Quality is the first call's, at the seed itself.
		calls = calls[:0]
		for k := 0; k < w.DefaultRepeat; k++ {
			kopt := opt
			kopt.Seed += int64(k)
			var rk *flow.Result
			sec, ok := timeOp(o, "default "+bf.Name, func() (err error) {
				rk, err = flow.RunDefault(loaded[i], kopt)
				return err
			}, func() error { return checkResult(rk) })
			calls = append(calls, sec)
			if ok && k == 0 {
				s.deflt = append(s.deflt, qualityOf(rk))
			}
		}
		s.defaultS += median(calls)
	}
	return s, loaded
}

// aggregate folds per-design quality into the workload's numbers: geometric
// means of HPWL, routed wirelength and power, the worst WNS violation, and
// summed TNS violation and routing overflow.
type aggQuality struct {
	hpwlUM, rwlUM, powerMW, wnsViolNS, tnsViolNS, overflow float64
}

func aggregate(qs []quality) aggQuality {
	var a aggQuality
	if len(qs) == 0 {
		return a
	}
	var lh, lr, lp float64
	for _, q := range qs {
		lh += math.Log(q.HPWL)
		lr += math.Log(q.RWL)
		lp += math.Log(q.Power * 1e3)
		a.wnsViolNS = math.Max(a.wnsViolNS, -q.WNS*1e9)
		a.tnsViolNS += math.Max(0, -q.TNS*1e9)
		a.overflow += float64(q.Overflow)
	}
	n := float64(len(qs))
	a.hpwlUM, a.rwlUM, a.powerMW = math.Exp(lh/n), math.Exp(lr/n), math.Exp(lp/n)
	return a
}

// sameQuality fails the flow's operation on every design whose quality
// differs from the first repetition's.
func sameQuality(o *ops, flowName string, files []benchFiles, got, first []quality) {
	for i := range got {
		if i < len(first) && !got[i].bitEqual(first[i]) {
			o.fail("repeat "+flowName+" "+files[i].Name, fmt.Errorf("quality differs from repetition 1"))
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runWorkload does set-up, the warm-up pass, the untraced repetitions and,
// when asked, the traced replay of one workload in this process.
func runWorkload(cfg config) (*workloadResult, []span, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload.Name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up, repeated while it is short so its median is steady; the last
	// set-up's files are the ones measured.
	var setupS []float64
	var files []benchFiles
	var model *gnn.Model
	var fitS float64
	for total := 0.0; len(setupS) < 9 && (len(setupS) == 0 || total < 2); {
		runtime.GC()
		t0 := time.Now()
		if files, model, fitS, err = setUp(cfg, dir); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		sec := time.Since(t0).Seconds()
		setupS = append(setupS, sec)
		total += sec
	}

	// One untimed warm-up pass on a small design with the workload's own
	// options: page in the code, grow the heap, start the worker pool.
	// The smoke scale is its own warm-up.
	if !cfg.Smoke {
		warm := cfg
		warm.Smoke = true // 2k cells, and no second model fit: the flow's own is passed below
		warm.Workload.Cells, warm.Workload.Named = smokeCells, nil
		warm.Workload.LoadRepeat, warm.Workload.DefaultRepeat = 1, 1
		warmFiles, _, _, err := setUp(warm, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		var warmOps ops
		repetition(warm, warmFiles, model, &warmOps)
		if len(warmOps.failures) > 0 {
			return nil, nil, fmt.Errorf("warm-up: %s", warmOps.failures[0])
		}
	}

	var o ops
	var reps []repSample
	var loaded []*designs.Benchmark
	start := time.Now()
	for len(reps) == 0 || (cfg.Reps > 0 && len(reps) < cfg.Reps) ||
		(cfg.Reps == 0 && time.Since(start).Seconds() < cfg.Seconds) {
		var s repSample
		s, loaded = repetition(cfg, files, model, &o)
		// Quality repeats bit for bit; a repetition that differs from the
		// first is a failed operation.
		if len(reps) > 0 {
			sameQuality(&o, "clustered", files, s.clustered, reps[0].clustered)
			sameQuality(&o, "default", files, s.deflt, reps[0].deflt)
		}
		reps = append(reps, s)
	}
	rss := peakRSSMB()

	res := &workloadResult{Workload: cfg.Workload.Name, Why: cfg.Workload.Why, Seed: cfg.Seed,
		Reps: len(reps), Designs: make([]string, len(files))}
	for i, bf := range files {
		res.Designs[i] = bf.Name
	}
	samples := map[string][]float64{"setup_s": setupS, "peak_rss_mb": {rss}}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for _, r := range reps {
		c, d := aggregate(r.clustered), aggregate(r.deflt)
		add("load_s", r.loadS)
		add("clustered_flow_s", r.clusteredS)
		add("default_flow_s", r.defaultS)
		add("clustered_hpwl_um", c.hpwlUM)
		add("clustered_rwl_um", c.rwlUM)
		add("clustered_power_mw", c.powerMW)
		add("clustered_wns_viol_ns", c.wnsViolNS)
		add("clustered_tns_viol_ns", c.tnsViolNS)
		add("clustered_route_overflow", c.overflow)
		add("default_hpwl_um", d.hpwlUM)
		add("default_rwl_um", d.rwlUM)
		add("default_tns_viol_ns", d.tnsViolNS)
	}
	for _, def := range endToEnd {
		m := summarize(def, samples[def.Name])
		if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
			o.fail("report "+def.Name, fmt.Errorf("non-finite value"))
		}
		res.EndToEnd = append(res.EndToEnd, m)
	}

	var spans []span
	if cfg.Trace && len(o.failures) == 0 {
		if model == nil && cfg.Workload.BothEngines {
			// The replay's second engine needs a model the flow does not.
			if model, fitS, err = trainModel(cfg); err != nil {
				return nil, nil, fmt.Errorf("train model for the replay: %w", err)
			}
		}
		var values map[string]float64
		err := guard(func() error {
			var err error
			values, spans, err = replay(cfg, files, loaded, model, res, reps[len(reps)-1])
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		values["gnn.fit_s"] = fitS
		for _, def := range perLayer {
			v, ok := values[def.Name]
			if !ok {
				continue // par.* on a machine that cannot show a speed-up
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				o.fail("report "+def.Name, fmt.Errorf("non-finite value"))
			}
			res.PerLayer = append(res.PerLayer, summarize(def, []float64{v}))
		}
	}
	res.Attempted, res.Failed, res.Failures = o.attempted, min(len(o.failures), o.attempted), o.failures
	return res, spans, nil
}
