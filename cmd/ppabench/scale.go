package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/place"
)

// scaleRow is one design size of the -scale sweep. This sweep times the
// placement core only; the per-throughput field is named place_cells_per_sec
// so it cannot be confused with a whole-flow rate (the flow sweep in
// BENCH_scale_flow.json reports per-stage rates under distinct keys).
type scaleRow struct {
	Cells            int     `json:"cells"`    // requested cell count
	Insts            int     `json:"insts"`    // generated instance count
	Nets             int     `json:"nets"`     // generated net count
	Pins             int     `json:"pins"`     // generated pin count
	GenMS            float64 `json:"gen_ms"`   // design generation wall clock
	PlaceMS          float64 `json:"place_ms"` // global placement wall clock
	PlaceCellsPerSec float64 `json:"place_cells_per_sec"`
	PlaceIters       int     `json:"place_iters"` // outer solve+spread rounds
	CGIters          int     `json:"cg_iters"`    // total CG iterations across solves
	HPWL             float64 `json:"hpwl"`
	Overflow         float64 `json:"overflow"`
	PeakRSSMB        float64 `json:"peak_rss_mb"` // VmHWM after the run, 0 if unknown
}

// scaleRun is the BENCH_scale.json document.
type scaleRun struct {
	CPUs       int        `json:"cpus"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Workers    int        `json:"workers"`
	Seed       int64      `json:"seed"`
	Rows       []scaleRow `json:"rows"`
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

// peakRSSMB reads the process high-water resident set (VmHWM) from
// /proc/self/status. Returns 0 on platforms without procfs.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// printMemStats dumps the Go heap counters after a row, for -memstats runs.
func printMemStats(label string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("  %-10s heap=%.1fMB sys=%.1fMB allocs=%.1fMB gc=%d\n",
		label,
		float64(ms.HeapAlloc)/(1<<20),
		float64(ms.Sys)/(1<<20),
		float64(ms.TotalAlloc)/(1<<20),
		ms.NumGC)
}

// countPins sums the design's net pin lists.
func countPins(d *netlist.Design) int {
	pins := 0
	for _, n := range d.Nets {
		pins += len(n.Pins)
	}
	return pins
}

// runScale generates each requested size and times global placement on it,
// writing the machine-readable sweep to outPath.
func runScale(sizes []int, seed int64, workers int, memstats bool, outPath string) {
	f, err := os.Create(outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppabench: %v\n", err)
		os.Exit(1)
	}
	run := scaleRun{
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    par.Workers(workers),
		Seed:       seed,
	}
	for _, cells := range sizes {
		spec := designs.ScaleSpec(cells, 4242+seed)
		t0 := time.Now()
		b := designs.GenerateWorkers(spec, workers)
		genMS := float64(time.Since(t0).Microseconds()) / 1000

		d := b.Design
		t1 := time.Now()
		res := place.Global(d, place.Options{Seed: 7, Workers: workers})
		placeMS := float64(time.Since(t1).Microseconds()) / 1000

		row := scaleRow{
			Cells:            cells,
			Insts:            len(d.Insts),
			Nets:             len(d.Nets),
			Pins:             countPins(d),
			GenMS:            genMS,
			PlaceMS:          placeMS,
			PlaceCellsPerSec: float64(len(d.Insts)) / (placeMS / 1000),
			PlaceIters:       res.Iterations,
			CGIters:          res.CGIterations,
			HPWL:             res.HPWL,
			Overflow:         res.Overflow,
			PeakRSSMB:        peakRSSMB(),
		}
		run.Rows = append(run.Rows, row)
		fmt.Printf("scale %8d cells: gen %8.1f ms, place %9.1f ms (%7.0f cells/s), hpwl %.4g, rss %.0f MB\n",
			cells, genMS, placeMS, row.PlaceCellsPerSec, row.HPWL, row.PeakRSSMB)
		if memstats {
			printMemStats(spec.Name)
		}
	}
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
	fmt.Printf("scale sweep written to %s\n", outPath)
}
