package main

import (
	"fmt"
	"io"
	"math"
)

// verdict compares one end-to-end metric of two results. Every metric is
// lower-is-better: worse means the new median exceeds the old by more than
// the bound, better the reverse. Inside the bound the verdict is same,
// unless the medians differ and the inter-quartile spread of either side is
// wider than the bound: then the data cannot tell and the verdict is
// unresolved.
func verdict(def metricDef, old, cur metric) (v string, rel, spread float64) {
	if old.Median != 0 {
		rel = (cur.Median - old.Median) / math.Abs(old.Median)
	} else if cur.Median != 0 {
		rel = math.Inf(1)
	}
	for _, m := range []metric{old, cur} {
		if m.Median != 0 {
			spread = math.Max(spread, (m.Q3-m.Q1)/math.Abs(m.Median))
		}
	}
	switch {
	case rel > def.Bound:
		v = "worse"
	case rel < -def.Bound:
		v = "better"
	case rel != 0 && spread > def.Bound:
		v = "unresolved"
	default:
		v = "same"
	}
	return v, rel, spread
}

// compareResults prints, per workload and end-to-end metric, both medians,
// the spread, the bound and the verdict, and for exact quantities whether
// they are bit-equal. It returns false on any worse verdict or any rise in
// the share of failed operations.
func compareResults(old, cur *resultsFile, w io.Writer) bool {
	ok := true
	for _, cw := range cur.Workloads {
		var ow *workloadResult
		for i := range old.Workloads {
			if old.Workloads[i].Workload == cw.Workload {
				ow = &old.Workloads[i]
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "== %s: not in the old file\n", cw.Workload)
			continue
		}
		fmt.Fprintf(w, "== %s\n", cw.Workload)
		fmt.Fprintf(w, "   %-26s %14s %14s %8s %7s %6s  %s\n", "metric", "old", "new", "change", "spread", "bound", "verdict")
		for _, def := range endToEnd {
			om, ok1 := findMetric(ow.EndToEnd, def.Name)
			cm, ok2 := findMetric(cw.EndToEnd, def.Name)
			if !ok1 || !ok2 {
				continue
			}
			v, rel, spread := verdict(def, om, cm)
			exact := ""
			if def.Exact {
				exact = "  changed"
				if math.Float64bits(om.Median) == math.Float64bits(cm.Median) {
					exact = "  equal"
				}
			}
			fmt.Fprintf(w, "   %-26s %14.6g %14.6g %+7.2f%% %6.2f%% %5.0f%%  %s%s\n",
				def.Name, om.Median, cm.Median, 100*rel, 100*spread, 100*def.Bound, v, exact)
			if v == "worse" {
				ok = false
			}
		}
		for _, def := range perLayer {
			om, ok1 := findMetric(ow.PerLayer, def.Name)
			cm, ok2 := findMetric(cw.PerLayer, def.Name)
			if def.Exact && ok1 && ok2 && math.Float64bits(om.Median) != math.Float64bits(cm.Median) {
				fmt.Fprintf(w, "   %-26s %14.6g %14.6g  changed\n", def.Name, om.Median, cm.Median)
			}
		}
		oldShare := float64(ow.Failed) / math.Max(1, float64(ow.Attempted))
		newShare := float64(cw.Failed) / math.Max(1, float64(cw.Attempted))
		fmt.Fprintf(w, "   failed operations: %d of %d -> %d of %d\n", ow.Failed, ow.Attempted, cw.Failed, cw.Attempted)
		if newShare > oldShare {
			ok = false
		}
	}
	return ok
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if old.Fingerprint.Seed != cur.Fingerprint.Seed || old.Fingerprint.Smoke != cur.Fingerprint.Smoke {
		fmt.Fprintf(stdout, "note: seeds or scales differ (%d/%v vs %d/%v): exact quantities will not be equal\n",
			old.Fingerprint.Seed, old.Fingerprint.Smoke, cur.Fingerprint.Seed, cur.Fingerprint.Smoke)
	}
	if !compareResults(old, cur, stdout) {
		return 1
	}
	return 0
}
