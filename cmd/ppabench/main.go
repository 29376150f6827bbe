// Command ppabench regenerates the paper's evaluation: Tables 1-6, the
// Section 4.4 GNN metrics, and Figure 5, writing the paper-vs-measured
// report to EXPERIMENTS.md (or stdout).
//
// Usage:
//
//	ppabench                 # full suite, writes EXPERIMENTS.md
//	ppabench -fast           # shrunken designs/dataset, for a quick look
//	ppabench -table 2        # print one section of the report to stdout:
//	                         # 1-6, gnn, figure5, runtime, ablation
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
	table := flag.String("table", "", "print one section of the report (1-6, gnn, figure5, runtime, ablation) to stdout")
	timingDriven := flag.String("timing-driven", "",
		"run the timing/routability-driven placement A/B: \"tables\" for the Table-3/4 protocols, or a size list like \"10k\" for flat scale designs")
	tdOut := flag.String("td-out", "BENCH_timing_driven.json", "timing-driven A/B output path")
	out := flag.String("o", "EXPERIMENTS.md", "report output path (full runs)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	// Reject a bad section name before a file is created or a design built.
	section, err := experiments.ParseSection(*table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(2)
	}

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
		check(section(s, os.Stdout))
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
