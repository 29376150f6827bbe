// Package fixturepar is a parshare fixture; the harness loads it under the
// faked import path ppaclust/internal/fixturepar. The firing half writes
// shared captured state from par closures; the approved half uses the
// repo's partitioned idioms (per-index slots, per-worker partials, gather
// arenas, partitioned helpers) and must stay silent.
package fixturepar

import "ppaclust/internal/par"

// SharedAppend appends to a captured slice from every worker: flagged.
func SharedAppend(vals []float64, workers int) []float64 {
	var out []float64
	par.ForEach(workers, len(vals), func(i int) {
		out = append(out, vals[i]*2) // want `parshare: par.ForEach closure appends to captured "out"`
	})
	return out
}

// SharedSum accumulates into a captured scalar: flagged.
func SharedSum(vals []float64, workers int) float64 {
	sum := 0.0
	par.ForEach(workers, len(vals), func(i int) {
		sum += vals[i] // want `parshare: par.ForEach closure accumulates into captured "sum"`
	})
	return sum
}

// CountByBucket writes a captured map from every worker: flagged even though
// the key is index-derived — concurrent map writes race regardless.
func CountByBucket(bucket []int, workers int) map[int]int {
	counts := map[int]int{}
	par.ForEach(workers, len(bucket), func(i int) {
		counts[bucket[i]]++ // want `parshare: par.ForEach closure writes captured map through "counts"`
	})
	return counts
}

// appendInto is the helper behind HelperAppend; the write lives here but is
// reported at the call site inside the closure.
func appendInto(dst *[]int, v int) {
	*dst = append(*dst, v)
}

// HelperAppend hides a shared append one call deep: flagged at the call.
func HelperAppend(n, workers int) []int {
	var out []int
	par.ForEach(workers, n, func(i int) {
		appendInto(&out, i) // want `parshare: par.ForEach closure calls appendInto, which writes to shared "dst"`
	})
	return out
}

type tally struct{ total float64 }

func (t *tally) add(v float64) { t.total += v }

// MethodAccum accumulates into a captured receiver through a method: flagged
// at the call.
func MethodAccum(vals []float64, workers int) float64 {
	var acc tally
	par.ForEach(workers, len(vals), func(i int) {
		acc.add(vals[i]) // want `parshare: par.ForEach closure calls add, which accumulates into shared "t"`
	})
	return acc.total
}

// Doubled writes per-index slots: the canonical approved idiom.
func Doubled(vals []float64, workers int) []float64 {
	out := make([]float64, len(vals))
	par.ForEach(workers, len(vals), func(i int) {
		out[i] = vals[i] * 2
	})
	return out
}

// ShardedSum accumulates per-worker partials, merged in fixed order after
// the parallel section: approved.
func ShardedSum(vals []float64, workers int) float64 {
	parts := make([]float64, workers)
	par.Blocks(workers, len(vals), func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			parts[w] += vals[k]
		}
	})
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	return sum
}

type gatherArena struct{ xs []int }

// GatherArenas appends through a pointer to the worker's own arena slot —
// the per-worker gather idiom: approved, the derived local partitions it.
func GatherArenas(items []int, workers int) [][]int {
	parts := make([]gatherArena, workers)
	par.Blocks(workers, len(items), func(w, lo, hi int) {
		gp := &parts[w]
		for k := lo; k < hi; k++ {
			if items[k]%2 == 0 {
				gp.xs = append(gp.xs, items[k])
			}
		}
	})
	out := make([][]int, workers)
	for w := range parts {
		out[w] = parts[w].xs
	}
	return out
}

// WorkerScratch takes a per-worker view of a captured scratch table and
// writes block-partitioned output slots: approved.
func WorkerScratch(vals []float64, workers int) []float64 {
	scratch := make([][]float64, workers)
	for w := range scratch {
		scratch[w] = make([]float64, 1)
	}
	out := make([]float64, len(vals))
	par.Blocks(workers, len(vals), func(w, lo, hi int) {
		sc := scratch[w]
		for k := lo; k < hi; k++ {
			sc[0] = vals[k]
			out[k] = sc[0] * 2
		}
	})
	return out
}

// setSlot is the partitioned helper behind HelperPartitioned.
func setSlot(dst []float64, i int, v float64) { dst[i] = v }

// HelperPartitioned writes per-index slots one call deep: the index-derived
// argument makes the helper's parameter a partitioning index, so this is
// approved.
func HelperPartitioned(vals []float64, workers int) []float64 {
	out := make([]float64, len(vals))
	par.ForEach(workers, len(vals), func(i int) {
		setSlot(out, i, vals[i]*3)
	})
	return out
}

// SuppressedAppend demonstrates a written-reason suppression of a shared
// append: silent.
func SuppressedAppend(n, workers int) []int {
	var out []int
	par.ForEach(workers, n, func(i int) {
		out = append(out, i) //ppalint:ignore parshare fixture: collected nondeterministically on purpose, order fixed by a later sort
	})
	return out
}
