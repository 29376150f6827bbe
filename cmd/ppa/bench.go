package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ppaclust/internal/designs"
	"ppaclust/internal/experiments"
	"ppaclust/internal/flow"
)

// benchCmd regenerates the paper's evaluation: Tables 1-6, the Section 4.4
// GNN metrics and Figure 5, writing the paper-vs-measured report to
// EXPERIMENTS.md, or one section of it to stdout (-table). -timing-driven
// runs the timing/routability-driven placement A/B instead.
func benchCmd(args []string) (err error) {
	fs := flag.NewFlagSet("ppa bench", flag.ContinueOnError)
	fast := fs.Bool("fast", false, "shrink designs and ML dataset for a quick run")
	seed := fs.Int64("seed", 1, "suite seed")
	workers := fs.Int("workers", 0,
		"goroutine budget of the stages that fan out (0 = PPACLUST_WORKERS or GOMAXPROCS, 1 = sequential)")
	table := fs.String("table", "", "print one section of the report (1-6, gnn, figure5, runtime, ablation) to stdout")
	timingDriven := fs.String("timing-driven", "",
		"run the timing/routability-driven placement A/B: \"tables\" for the Table-3/4 protocols, or a size list like \"10k\" for flat scale designs")
	tdOut := fs.String("td-out", "BENCH_timing_driven.json", "timing-driven A/B output path")
	out := fs.String("o", "EXPERIMENTS.md", "report output path (full runs)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// Reject a bad section name before a file is created or a design built.
	section, err := experiments.ParseSection(*table)
	if err != nil {
		return usageError(err.Error())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	s := experiments.NewSuite(*fast, *seed, *workers)
	switch {
	case *timingDriven != "":
		err = runTimingDriven(s, *timingDriven, *tdOut)
	case *table != "":
		_, err = section(s, os.Stdout)
	default:
		err = runAll(s, *out)
	}
	if err != nil || *memprofile == "" {
		return err
	}
	return writeFile(*memprofile, func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
}

func runAll(s *experiments.Suite, out string) error {
	t0 := time.Now()
	fmt.Printf("running the full evaluation suite (this trains the GNN and runs every flow)...\n")
	var claims []experiments.Claim
	if err := writeFile(out, func(w io.Writer) (err error) {
		claims, err = s.WriteReport(w)
		return err
	}); err != nil {
		return err
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
	return nil
}

// tdRun is the BENCH_timing_driven.json document. Every row field is a pure
// quality metric — no wall-clock, worker counts or memory — so runs at
// different worker counts must produce byte-identical files; wall-clock is
// printed to stdout instead.
type tdRun struct {
	Protocol string              `json:"protocol"` // "tables" or a size list
	Seed     int64               `json:"seed"`
	Fast     bool                `json:"fast,omitempty"`
	Rows     []experiments.TDRow `json:"rows"`
}

// parseScaleSizes parses a size list like "10k,100k,1m" (suffixes k and m,
// case-insensitive, or raw integers).
func parseScaleSizes(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		if tok == "" {
			continue
		}
		mult := 1
		switch {
		case strings.HasSuffix(tok, "m"):
			mult, tok = 1000000, strings.TrimSuffix(tok, "m")
		case strings.HasSuffix(tok, "k"):
			mult, tok = 1000, strings.TrimSuffix(tok, "k")
		}
		v, err := strconv.Atoi(tok)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad size %q", tok)
		}
		out = append(out, v*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size list")
	}
	return out, nil
}

// runTimingDriven drives the -timing-driven A/B mode: spec "tables" runs the
// Table-3/4 protocols through the experiments suite; a size list like "10k"
// runs the flat default flow A/B on generated scale designs.
func runTimingDriven(s *experiments.Suite, spec, outPath string) error {
	t0 := time.Now()
	rows, err := timingDrivenRows(s, spec)
	if err != nil {
		return err
	}
	ms := float64(time.Since(t0).Microseconds()) / 1000
	for _, r := range rows {
		fmt.Printf("timing-driven %-10s %-8s %7d insts: hpwl %.4g -> %.4g (x%.4f), tns %+.3f -> %+.3f ns (gain %+.3f), maxcong %.3f -> %.3f\n",
			r.Design, r.Tool, r.Insts, r.BaseHPWL, r.TDHPWL, r.HPWLRatio,
			r.BaseTNSns, r.TDTNSns, r.TNSGainNs, r.BaseMaxCongestion, r.TDMaxCongestion)
	}
	fmt.Printf("timing-driven A/B done in %.1f ms (workers=%d)\n", ms, s.Workers)
	doc := tdRun{Protocol: spec, Seed: s.Seed, Fast: s.Fast, Rows: rows}
	if err := writeFile(outPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}); err != nil {
		return err
	}
	fmt.Printf("timing-driven A/B written to %s\n", outPath)
	return nil
}

// timingDrivenRows runs one full A/B pass at the suite's seed and workers.
func timingDrivenRows(s *experiments.Suite, spec string) ([]experiments.TDRow, error) {
	if spec == "tables" {
		return s.TimingDrivenAB()
	}
	seed, workers := s.Seed, s.Workers
	sizes, err := parseScaleSizes(spec)
	if err != nil {
		return nil, err
	}
	var rows []experiments.TDRow
	for _, cells := range sizes {
		b := designs.GenerateWorkers(designs.ScaleSpec(cells, 4242+seed), workers)
		base, err := flow.RunDefault(b, flow.Options{Seed: seed, Workers: workers})
		if err != nil {
			return nil, err
		}
		td, err := flow.RunDefault(b, flow.Options{Seed: seed, Workers: workers,
			TimingDriven: true, RoutabilityDriven: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, experiments.MakeTDRow(
			fmt.Sprintf("scale-%d", cells), "flat", len(b.Design.Insts), base, td))
	}
	return rows, nil
}
