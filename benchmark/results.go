package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported number: the median of its samples with quartiles
// and sample count. Single-valued metrics (counts, per-layer sums) have N=1.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      int64    `json:"seed"`
	Reps      int      `json:"reps"`
	Designs   []string `json:"designs"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
}

func findMetric(list []metric, name string) (metric, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// fingerprint says where and how a result was taken.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"` // 0 = each workload's default
	Smoke      bool   `json:"smoke,omitempty"`
}

// resultsFile is results.json; traceFile is trace.json.
type resultsFile struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	Workloads   []workloadResult `json:"workloads"`
}

type traceFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Spans       []span      `json:"spans"`
}

// resolveWorkers is the worker budget of every run: min(GOMAXPROCS, 4),
// never more than the machine's CPUs.
func resolveWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); w > n {
		w = n
	}
	if w > 4 {
		w = 4
	}
	return w
}

func newFingerprint(seed int64, reps, workers int, smoke bool) fingerprint {
	fp := fingerprint{CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers, GoVersion: runtime.Version(), Revision: "unknown", Seed: seed, Reps: reps, Smoke: smoke}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Revision = s.Value
			}
		}
	}
	return fp
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method); one
// sample is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return v[lo-1] + frac*(v[lo]-v[lo-1])
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

func summarize(def metricDef, samples []float64) metric {
	q1, med, q3 := quartiles(samples)
	return metric{Name: def.Name, Unit: def.Unit, Median: med, Q1: q1, Q3: q3, N: len(samples)}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
