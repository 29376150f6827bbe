// Command ppabench regenerates the paper's evaluation: Tables 1-6, the
// Section 4.4 GNN metrics, and Figure 5, writing the paper-vs-measured
// report to EXPERIMENTS.md (or stdout).
//
// Usage:
//
//	ppabench                 # full suite, writes EXPERIMENTS.md
//	ppabench -fast           # shrunken designs/dataset, for a quick look
//	ppabench -table 2        # print one table to stdout
//	ppabench -figure 5       # print the Figure 5 sweep
//	ppabench -table gnn      # print the model-quality metrics
//	ppabench -table ablation # extension: per-term PPA-awareness ablation
//	ppabench -workers 4      # goroutine budget (0 = GOMAXPROCS)
//	ppabench -json out.json  # machine-readable per-table wall-clock + metrics
//	ppabench -scale 10k,100k,1m -scale-out BENCH_scale.json   # scale sweep
//	ppabench -scale-flow 10k,100k,1m   # per-stage flow sweep -> BENCH_scale_flow.json
//	ppabench -scale-flow 10k,100k,1m -workers-sweep   # same, at W=1/2/4/8 with speedups
//	ppabench -timing-driven tables   # timing/routability-driven A/B on the Table-3/4 protocols
//	ppabench -timing-driven 10k -workers-sweep   # flat A/B smoke with the W=1/2/4/8 identity gate
//	ppabench -scale 100k -memstats   # one size, with Go heap counters
//	ppabench -cpuprofile cpu.out -memprofile mem.out   # pprof profiles
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ppaclust/internal/experiments"
	"ppaclust/internal/par"
)

// check unwraps a (value, error) pair, reporting the error and exiting on
// failure: the suite's library code returns errors, and dying is the CLI's
// job.
func check[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	return v
}

func main() {
	fast := flag.Bool("fast", false, "shrink designs and ML dataset for a quick run")
	seed := flag.Int64("seed", 1, "suite seed")
	workers := flag.Int("workers", 0,
		"goroutine budget for all kernels and fan-out (0 = PPACLUST_WORKERS or GOMAXPROCS, 1 = sequential)")
	table := flag.String("table", "", "print one table (1-6, gnn, runtime, ablation) to stdout")
	figure := flag.String("figure", "", "print one figure (5) to stdout")
	jsonOut := flag.String("json", "", "write per-benchmark wall-clock and headline metrics as JSON")
	scale := flag.String("scale", "",
		"run the scale sweep over a size list like \"10k,100k,1m\" instead of the paper suite")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "scale sweep output path")
	scaleFlow := flag.String("scale-flow", "",
		"run the per-stage flow sweep (gen/cluster/place/sta/route/cts) over a size list")
	scaleFlowOut := flag.String("scale-flow-out", "BENCH_scale_flow.json", "flow sweep output path")
	workersSweep := flag.Bool("workers-sweep", false,
		"with -scale-flow: run each size at workers=1,2,4,8, check quality fields bit-identical, record per-stage speedups; with -timing-driven: re-run the A/B at workers=1,2,4,8 and check the rows bit-identical")
	timingDriven := flag.String("timing-driven", "",
		"run the timing/routability-driven placement A/B: \"tables\" for the Table-3/4 protocols, or a size list like \"10k\" for flat scale designs")
	tdOut := flag.String("td-out", "BENCH_timing_driven.json", "timing-driven A/B output path")
	memstats := flag.Bool("memstats", false, "print Go heap counters after each scale row")
	out := flag.String("o", "EXPERIMENTS.md", "report output path (full runs)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
			os.Exit(1)
		}
	}

	s := experiments.NewSuite(*fast, *seed, *workers)
	switch {
	case *timingDriven != "":
		runTimingDriven(*timingDriven, *fast, *seed, *workers, *workersSweep, *tdOut)
	case *scaleFlow != "":
		runScaleFlow(check(parseScaleSizes(*scaleFlow)), *seed, *workers, *workersSweep, *scaleFlowOut)
	case *scale != "":
		runScale(check(parseScaleSizes(*scale)), *seed, *workers, *memstats, *scaleOut)
	case *jsonOut != "":
		runJSON(s, *jsonOut)
	case *table != "":
		printTable(s, *table)
	case *figure == "5":
		printFigure5(s)
	default:
		runAll(s, *out)
	}

	// Profiles flush on the success path only; error paths os.Exit above.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
			os.Exit(1)
		}
	}
}

// jsonBench is one timed benchmark entry of the -json output.
type jsonBench struct {
	Name    string             `json:"name"`
	WallMS  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics"`
}

// jsonRun is the top-level -json document.
type jsonRun struct {
	CPUs       int         `json:"cpus"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Workers    int         `json:"workers"`
	Fast       bool        `json:"fast"`
	Seed       int64       `json:"seed"`
	TotalMS    float64     `json:"total_ms"`
	Benchmarks []jsonBench `json:"benchmarks"`
}

// runJSON times every table/figure of the suite and writes wall-clock plus
// the same headline metrics the root bench_test.go reports.
func runJSON(s *experiments.Suite, path string) {
	// Open the output first: a bad path should fail before the suite runs,
	// not after minutes of benchmarking.
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	run := jsonRun{
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    par.Workers(s.Workers),
		Fast:       s.Fast,
		Seed:       s.Seed,
	}
	mark := func(name string, fn func() map[string]float64) {
		t0 := time.Now()
		m := fn()
		ms := float64(time.Since(t0).Microseconds()) / 1000
		run.TotalMS += ms
		run.Benchmarks = append(run.Benchmarks, jsonBench{Name: name, WallMS: ms, Metrics: m})
		fmt.Printf("  %-18s %10.1f ms\n", name, ms)
	}
	// Train first so model cost doesn't land inside the first table that
	// happens to need it.
	mark("TrainModel", func() map[string]float64 {
		rep := check(s.GNNMetrics())
		return map[string]float64{"test_mae": rep.Test.MAE, "test_r2": rep.Test.R2,
			"samples": float64(rep.Samples)}
	})
	mark("Table1", func() map[string]float64 {
		var insts, nets int
		for _, r := range check(s.Table1()) {
			insts += r.Insts
			nets += r.Nets
		}
		return map[string]float64{"total_insts": float64(insts), "total_nets": float64(nets)}
	})
	mark("Table2", func() map[string]float64 {
		var cpu, hpwl float64
		rows := check(s.Table2())
		for _, r := range rows {
			cpu += r.OursCPU
			hpwl += r.OursHPWL
		}
		n := float64(len(rows))
		return map[string]float64{"ours_cpu_ratio": cpu / n, "ours_hpwl_ratio": hpwl / n}
	})
	mark("Table3", func() map[string]float64 {
		return map[string]float64{"tns_improvement_ns": tnsImprovement(check(s.Table3()))}
	})
	mark("Table4", func() map[string]float64 {
		return map[string]float64{"tns_improvement_ns": tnsImprovement(check(s.Table4()))}
	})
	mark("Table5", func() map[string]float64 {
		var ours, mfc float64
		for _, r := range check(s.Table5()) {
			switch r.Flow {
			case "Ours":
				ours += r.TNSns
			case "MFC":
				mfc += r.TNSns
			}
		}
		return map[string]float64{"ours_minus_mfc_tns_ns": ours - mfc}
	})
	mark("Table6", func() map[string]float64 {
		var ml, uni float64
		for _, r := range check(s.Table6()) {
			switch r.Flow {
			case "V-P&R_ML":
				ml += r.TNSns
			case "Uniform":
				uni += r.TNSns
			}
		}
		return map[string]float64{"ml_minus_uniform_tns_ns": ml - uni}
	})
	mark("Figure5", func() map[string]float64 {
		var worst float64
		for _, p := range check(s.Figure5()) {
			if p.Score > worst {
				worst = p.Score
			}
		}
		return map[string]float64{"worst_norm_hpwl": worst}
	})
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(run); err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workers=%d total %.1f ms; JSON written to %s\n", run.Workers, run.TotalMS, path)
}

func tnsImprovement(rows []experiments.PPARow) float64 {
	var def, ours float64
	for _, r := range rows {
		switch r.Flow {
		case "Default":
			def += r.TNSns
		case "Ours":
			ours += r.TNSns
		}
	}
	return ours - def
}

func runAll(s *experiments.Suite, out string) {
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	t0 := time.Now()
	fmt.Printf("running the full evaluation suite (this trains the GNN and runs every flow)...\n")
	claims, err := s.WriteReport(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	pass := 0
	for _, c := range claims {
		mark := "PASS"
		if c.Pass {
			pass++
		} else {
			mark = "FAIL"
		}
		fmt.Printf("  [%s] %s — %s\n", mark, c.Name, c.Measured)
	}
	fmt.Printf("%d/%d shape checks passed; report written to %s (%v)\n",
		pass, len(claims), out, time.Since(t0).Round(time.Second))
}

func printTable(s *experiments.Suite, table string) {
	switch table {
	case "1":
		var rows [][]string
		for _, r := range check(s.Table1()) {
			rows = append(rows, []string{r.Design, itoa(r.Insts), itoa(r.Nets), fmt.Sprintf("%.2f", r.TCPns)})
		}
		experiments.FprintTable(os.Stdout, []string{"Design", "#Insts", "#Nets", "TCP(ns)"}, rows)
	case "2":
		var rows [][]string
		for _, r := range check(s.Table2()) {
			rows = append(rows, []string{r.Design,
				fmt.Sprintf("%.3f", r.BlobHPWL), fmt.Sprintf("%.3f", r.BlobCPU),
				fmt.Sprintf("%.3f", r.OursHPWL), fmt.Sprintf("%.3f", r.OursCPU)})
		}
		experiments.FprintTable(os.Stdout, []string{"Design", "[9] HPWL", "[9] CPU", "Ours HPWL", "Ours CPU"}, rows)
	case "3", "4", "5", "6":
		var data []experiments.PPARow
		switch table {
		case "3":
			data = check(s.Table3())
		case "4":
			data = check(s.Table4())
		case "5":
			data = check(s.Table5())
		case "6":
			data = check(s.Table6())
		}
		var rows [][]string
		for _, r := range data {
			rows = append(rows, []string{r.Design, r.Flow,
				fmt.Sprintf("%.3f", r.RWL), fmt.Sprintf("%.1f", r.WNSps),
				fmt.Sprintf("%.3f", r.TNSns), fmt.Sprintf("%.4f", r.PowerW)})
		}
		experiments.FprintTable(os.Stdout, []string{"Design", "Flow", "rWL", "WNS(ps)", "TNS(ns)", "Power(W)"}, rows)
	case "runtime":
		var rows [][]string
		for _, r := range check(s.RuntimeBreakdown()) {
			rows = append(rows, []string{r.Design, r.Cluster.String(), r.Shape.String(),
				r.SeedPlace.String(), r.IncrPlace.String(), r.Total.String(), r.DefaultPlace.String()})
		}
		experiments.FprintTable(os.Stdout, []string{"Design", "Cluster", "Shapes", "Seed", "Incr", "Total", "DefaultPlace"}, rows)
	case "ablation":
		var rows [][]string
		for _, r := range check(s.AblationClusterTerms()) {
			rows = append(rows, []string{r.Design, r.Arm,
				fmt.Sprintf("%.3f", r.RWL), fmt.Sprintf("%.1f", r.WNSps),
				fmt.Sprintf("%.3f", r.TNSns), fmt.Sprintf("%.4f", r.PowerW)})
		}
		experiments.FprintTable(os.Stdout, []string{"Design", "Arm", "rWL", "WNS(ps)", "TNS(ns)", "Power(W)"}, rows)
	case "gnn":
		rep := check(s.GNNMetrics())
		experiments.FprintTable(os.Stdout, []string{"Split", "MAE", "R2", "N"}, [][]string{
			{"train", fmt.Sprintf("%.3f", rep.Train.MAE), fmt.Sprintf("%.3f", rep.Train.R2), itoa(rep.Train.N)},
			{"val", fmt.Sprintf("%.3f", rep.Val.MAE), fmt.Sprintf("%.3f", rep.Val.R2), itoa(rep.Val.N)},
			{"test", fmt.Sprintf("%.3f", rep.Test.MAE), fmt.Sprintf("%.3f", rep.Test.R2), itoa(rep.Test.N)},
		})
		fmt.Printf("labels [%.3f, %.3f] mean %.3f; %d samples; speedup %.1fx; train %v\n",
			rep.LabelMin, rep.LabelMax, rep.LabelMean, rep.Samples, rep.SpeedupX, rep.TrainTime.Round(time.Millisecond))
	default:
		fmt.Fprintf(os.Stderr, "ppabench: unknown table %q\n", table)
		os.Exit(2)
	}
}

func printFigure5(s *experiments.Suite) {
	var rows [][]string
	for _, p := range check(s.Figure5()) {
		rows = append(rows, []string{p.Param, fmt.Sprintf("x%.0f", p.Multiplier), fmt.Sprintf("%.4f", p.Score)})
	}
	experiments.FprintTable(os.Stdout, []string{"Param", "Mult", "Norm. HPWL"}, rows)
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
