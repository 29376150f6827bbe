package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ppaclust/internal/designs"
	"ppaclust/internal/experiments"
	"ppaclust/internal/flow"
)

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

// sweepWorkerCounts are the worker counts a -workers-sweep run covers.
var sweepWorkerCounts = []int{1, 2, 4, 8}

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
// runs the flat default flow A/B on generated scale designs (the cheap smoke
// path CI uses). With sweep set, the whole comparison repeats at
// W=1/2/4/8 and any quality-field difference is a fatal error — the
// bit-identity contract applied to the feedback checkpoints.
func runTimingDriven(spec string, fast bool, seed int64, workers int, sweep bool, outPath string) {
	f, err := os.Create(outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	counts := []int{workers}
	if sweep {
		counts = sweepWorkerCounts
	}
	var ref []experiments.TDRow
	for wi, w := range counts {
		t0 := time.Now()
		rows := timingDrivenRows(spec, fast, seed, w)
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if wi == 0 {
			ref = rows
			for _, r := range rows {
				fmt.Printf("timing-driven %-10s %-8s %7d insts: hpwl %.4g -> %.4g (x%.4f), tns %+.3f -> %+.3f ns (gain %+.3f), maxcong %.3f -> %.3f\n",
					r.Design, r.Tool, r.Insts, r.BaseHPWL, r.TDHPWL, r.HPWLRatio,
					r.BaseTNSns, r.TDTNSns, r.TNSGainNs, r.BaseMaxCongestion, r.TDMaxCongestion)
			}
			fmt.Printf("timing-driven A/B done in %.1f ms (workers=%d)\n", ms, w)
			continue
		}
		fmt.Printf("timing-driven A/B re-run at workers=%d: %.1f ms\n", w, ms)
		if len(rows) != len(ref) {
			fmt.Fprintf(os.Stderr, "ppabench: workers=%d produced %d rows, workers=%d produced %d\n",
				counts[0], len(ref), w, len(rows))
			os.Exit(1)
		}
		for i := range rows {
			if rows[i] != ref[i] {
				fmt.Fprintf(os.Stderr, "ppabench: quality mismatch at workers=%d, row %s/%s:\n  w=%d: %+v\n  w=%d: %+v\n",
					w, rows[i].Design, rows[i].Tool, counts[0], ref[i], w, rows[i])
				os.Exit(1)
			}
		}
	}
	if sweep {
		fmt.Printf("timing-driven quality fields bit-identical across workers=%v\n", sweepWorkerCounts)
	}
	doc := tdRun{Protocol: spec, Seed: seed, Fast: fast, Rows: ref}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("timing-driven A/B written to %s\n", outPath)
}

// timingDrivenRows runs one full A/B pass at the given worker count.
func timingDrivenRows(spec string, fast bool, seed int64, workers int) []experiments.TDRow {
	if spec == "tables" {
		s := experiments.NewSuite(fast, seed, workers)
		return check(s.TimingDrivenAB())
	}
	sizes := check(parseScaleSizes(spec))
	var rows []experiments.TDRow
	for _, cells := range sizes {
		b := designs.GenerateWorkers(designs.ScaleSpec(cells, 4242+seed), workers)
		base := check(flow.RunDefault(b, flow.Options{Seed: seed, Workers: workers}))
		td := check(flow.RunDefault(b, flow.Options{Seed: seed, Workers: workers,
			TimingDriven: true, RoutabilityDriven: true}))
		rows = append(rows, experiments.MakeTDRow(
			fmt.Sprintf("scale-%d", cells), "flat", len(b.Design.Insts), base, td))
	}
	return rows
}
