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
//	ppabench -timing-driven tables   # timing/routability-driven A/B on the Table-3/4 protocols
//	ppabench -timing-driven 10k      # the same A/B on a flat 10k-cell scale design
//	ppabench -cpuprofile cpu.out -memprofile mem.out   # pprof profiles
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ppaclust/internal/experiments"
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
		"goroutine budget of the stages that fan out (0 = PPACLUST_WORKERS or GOMAXPROCS, 1 = sequential)")
	table := flag.String("table", "", "print one table (1-6, gnn, runtime, ablation) to stdout")
	figure := flag.String("figure", "", "print one figure (5) to stdout")
	timingDriven := flag.String("timing-driven", "",
		"run the timing/routability-driven placement A/B: \"tables\" for the Table-3/4 protocols, or a size list like \"10k\" for flat scale designs")
	tdOut := flag.String("td-out", "BENCH_timing_driven.json", "timing-driven A/B output path")
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
		runTimingDriven(*timingDriven, *fast, *seed, *workers, *tdOut)
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
