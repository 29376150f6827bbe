package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// smokeRun runs one workload at the smoke scale in this process, with the
// traced replay.
func smokeRun(t *testing.T, w workload) (*workloadResult, []span) {
	t.Helper()
	cfg := config{Workload: w, Seed: 1, Reps: 1, Trace: true, Smoke: true,
		Workers: resolveWorkers(), WorkDir: t.TempDir()}
	res, spans, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
	}
	return res, spans
}

// The first smoke pass is shared by the tests below.
var (
	smokeOnce    sync.Once
	smokeResults []*workloadResult
	smokeSpans   [][]span
)

func smokeAll(t *testing.T) ([]*workloadResult, [][]span) {
	smokeOnce.Do(func() {
		for _, w := range workloads {
			res, spans := smokeRun(t, w)
			smokeResults = append(smokeResults, res)
			smokeSpans = append(smokeSpans, spans)
		}
	})
	if len(smokeResults) != len(workloads) {
		t.Fatal("smoke pass failed")
	}
	return smokeResults, smokeSpans
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkJSON holds BENCHMARK.json and the tables in workloads.go
// together: same workloads, metric names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bm struct {
		Paths      []string `json:"paths"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bm.Paths)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %q/%q != %q/%q", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in workloads.go", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, def := range want {
			e := got[i]
			if e.Name != def.Name || e.Unit != def.Unit {
				t.Errorf("%s %d: %s [%s] != %s [%s]", kind, i, e.Name, e.Unit, def.Name, def.Unit)
			}
			if !nameRE.MatchString(def.Name) || len(def.Name) > 64 || seen[def.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, def.Name)
			}
			seen[def.Name] = true
			if bounded && (e.Bound != def.Bound || e.Bound <= 0 || e.Bound > 0.25 || e.Better != "lower") {
				t.Errorf("%s: bound %v/%v better %q", def.Name, e.Bound, def.Bound, e.Better)
			}
		}
	}
	// The driver draws a new seed for every run, so the per-seed quality
	// numbers are listed, unbounded, ahead of the per-layer metrics.
	var acrossSeeds, perSeed []metricDef
	for _, def := range endToEnd {
		if def.PerSeed {
			perSeed = append(perSeed, def)
		} else {
			acrossSeeds = append(acrossSeeds, def)
		}
	}
	check("end_to_end", bm.EndToEnd, acrossSeeds, true)
	check("per_layer", bm.PerLayer, append(perSeed, perLayer...), false)
}

// TestSmokeEmitsEveryMetric: every workload emits every metric exactly once,
// with its unit and a finite value.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	results, _ := smokeAll(t)
	parShown := resolveWorkers() >= 2
	for _, res := range results {
		check := func(got []metric, want []metricDef) {
			count := map[string]int{}
			for _, m := range got {
				count[m.Name]++
				if m.Unit == "" || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) || m.N < 1 {
					t.Errorf("%s: %s = %v [%s] n=%d", res.Workload, m.Name, m.Median, m.Unit, m.N)
				}
			}
			for _, def := range want {
				n := 1
				if strings.HasPrefix(def.Name, "par.") && !parShown {
					n = 0 // refused on a machine that cannot show a speed-up
				}
				if count[def.Name] != n {
					t.Errorf("%s: %s emitted %d times, want %d", res.Workload, def.Name, count[def.Name], n)
				}
			}
			if len(got) > len(want) {
				t.Errorf("%s: %d metrics emitted, %d defined", res.Workload, len(got), len(want))
			}
		}
		check(res.EndToEnd, endToEnd)
		check(res.PerLayer, perLayer)
		if m, _ := findMetric(res.PerLayer, "flow.replay_match"); m.Median != 1 {
			t.Errorf("%s: the replay no longer lands on flow.Run's placement", res.Workload)
		}
	}
}

// TestSmokeDeterministic: a second run in the same process repeats every
// quality metric and exact count bit for bit.
func TestSmokeDeterministic(t *testing.T) {
	results, _ := smokeAll(t)
	for i, w := range workloads {
		if w.Name != "scale100k" && w.Name != "tables-ml" {
			continue // one uniform and one ML/region workload keep the test short
		}
		again, _ := smokeRun(t, w)
		same := func(a, b []metric, defs []metricDef) {
			for _, def := range defs {
				if !def.Exact {
					continue
				}
				ma, oka := findMetric(a, def.Name)
				mb, okb := findMetric(b, def.Name)
				if !oka || !okb || math.Float64bits(ma.Median) != math.Float64bits(mb.Median) {
					t.Errorf("%s: %s differs between runs: %v vs %v", w.Name, def.Name, ma.Median, mb.Median)
				}
			}
		}
		same(results[i].EndToEnd, again.EndToEnd, endToEnd)
		same(results[i].PerLayer, again.PerLayer, perLayer)
	}
}

// TestSpanTree: children lie inside their parents, self time is not
// negative, and every design has exactly one root.
func TestSpanTree(t *testing.T) {
	results, all := smokeAll(t)
	for wi, spans := range all {
		childNs := make([]int64, len(spans))
		roots := map[string]int{}
		for i, s := range spans {
			if s.ID != i || s.EndNs < s.StartNs || s.Layer == "" || s.Name == "" || s.Workload != results[wi].Workload {
				t.Fatalf("malformed span %+v", s)
			}
			if s.Parent < 0 {
				roots[s.Design]++
				continue
			}
			if s.Parent >= i {
				t.Fatalf("span %d opened before its parent %d", i, s.Parent)
			}
			p := spans[s.Parent]
			if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Design != p.Design {
				t.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, p.ID, p.Name)
			}
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
		for i, s := range spans {
			if self := s.EndNs - s.StartNs - childNs[i]; self < 0 {
				t.Errorf("span %d (%s): self time %d ns", i, s.Name, self)
			}
		}
		for _, d := range results[wi].Designs {
			if roots[d] != 1 {
				t.Errorf("%s: design %s has %d root spans", results[wi].Workload, d, roots[d])
			}
		}
		if len(roots) != len(results[wi].Designs) {
			t.Errorf("%s: %d rooted designs, %d designs", results[wi].Workload, len(roots), len(results[wi].Designs))
		}
	}
}

// TestCompare: a file against itself is all same; a synthetic +50% on
// clustered_flow_s (its bound is 25%) is flagged worse and the reverse
// better; a rise in failed operations fails.
func TestCompare(t *testing.T) {
	results, _ := smokeAll(t)
	file := func() *resultsFile {
		f := &resultsFile{}
		for _, r := range results {
			c := *r
			c.EndToEnd = append([]metric(nil), r.EndToEnd...)
			f.Workloads = append(f.Workloads, c)
		}
		return f
	}
	var out bytes.Buffer
	if !compareResults(file(), file(), &out) {
		t.Errorf("a file compared with itself fails:\n%s", out.String())
	}
	for _, bad := range []string{"worse", "better", "unresolved", "changed"} {
		if strings.Contains(out.String(), bad) {
			t.Errorf("a file compared with itself reports %q:\n%s", bad, out.String())
		}
	}

	slow := file()
	for i := range slow.Workloads[0].EndToEnd {
		m := &slow.Workloads[0].EndToEnd[i]
		if m.Name == "clustered_flow_s" {
			m.Median, m.Q1, m.Q3 = m.Median*1.5, m.Q1*1.5, m.Q3*1.5
		}
	}
	out.Reset()
	if compareResults(file(), slow, &out) || !strings.Contains(out.String(), "worse") {
		t.Errorf("+50%% clustered_flow_s is not flagged worse:\n%s", out.String())
	}
	out.Reset()
	if !compareResults(slow, file(), &out) || !strings.Contains(out.String(), "better") {
		t.Errorf("-33%% clustered_flow_s is not reported better:\n%s", out.String())
	}

	failing := file()
	failing.Workloads[1].Failed = 1
	out.Reset()
	if compareResults(file(), failing, &out) {
		t.Error("a rise in failed operations passes")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{7})
	if q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles(7) = %v %v %v", q1, med, q3)
	}
}

// TestDriverLine: the BENCHMARK.json command prints, as its last line, one
// JSON object with exactly the contract's keys and every end-to-end metric.
func TestDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "scale250k", "--seed", "3", "--seconds", "0.1", "--trace", "0",
		"-smoke", "-workdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
		t.Fatalf("keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, def := range endToEnd {
		if def.PerSeed {
			continue
		}
		n++
		if m, ok := metrics[def.Name]; !ok || m.Value == nil || m.Unit != def.Unit {
			t.Errorf("%s missing or without unit", def.Name)
		}
	}
	if len(metrics) != n {
		t.Errorf("%d metrics, want %d", len(metrics), n)
	}
}
