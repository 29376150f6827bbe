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
func runTimingDriven(spec string, fast bool, seed int64, workers int, outPath string) {
	f, err := os.Create(outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	t0 := time.Now()
	rows := timingDrivenRows(spec, fast, seed, workers)
	ms := float64(time.Since(t0).Microseconds()) / 1000
	for _, r := range rows {
		fmt.Printf("timing-driven %-10s %-8s %7d insts: hpwl %.4g -> %.4g (x%.4f), tns %+.3f -> %+.3f ns (gain %+.3f), maxcong %.3f -> %.3f\n",
			r.Design, r.Tool, r.Insts, r.BaseHPWL, r.TDHPWL, r.HPWLRatio,
			r.BaseTNSns, r.TDTNSns, r.TNSGainNs, r.BaseMaxCongestion, r.TDMaxCongestion)
	}
	fmt.Printf("timing-driven A/B done in %.1f ms (workers=%d)\n", ms, workers)
	doc := tdRun{Protocol: spec, Seed: seed, Fast: fast, Rows: rows}
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
