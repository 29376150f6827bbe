// Package sta is a maporder fixture; the harness loads it under the faked
// import path ppaclust/internal/sta so the check treats it as
// determinism-critical code.
package sta

import (
	"sort"

	"ppaclust/internal/par"
)

// SumFloat accumulates a float in map order: flagged.
func SumFloat(m map[int]float64) float64 {
	var total float64
	for _, v := range m { // want `maporder: map iteration order is random: body accumulates a float`
		total += v
	}
	return total
}

// SpelledOutSum writes the accumulation as x = x + v: flagged.
func SpelledOutSum(m map[int]float64) float64 {
	var total float64
	for _, v := range m { // want `maporder: .*accumulates a float`
		total = total + v
	}
	return total
}

// AppendVals bakes map order into a slice: flagged.
func AppendVals(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `maporder: .*appends a non-key value to a slice`
		out = append(out, v)
	}
	return out
}

// Dispatch hands work to internal/par in map order: flagged.
func Dispatch(m map[int][]float64) {
	for _, vs := range m { // want `maporder: .*dispatches work to internal/par`
		vs := vs
		par.ForEach(1, len(vs), func(i int) { _ = vs[i] })
	}
}

// SortedSum is the sorted-keys idiom the check must recognize: the first
// range only collects keys, the accumulation ranges the sorted slice.
func SortedSum(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// CountInts keeps integer counters: order-independent, not flagged.
func CountInts(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// SuppressedSum carries a written-reason directive: finding silenced.
func SuppressedSum(m map[int]float64) float64 {
	var total float64
	//ppalint:ignore maporder fixture: demonstrates a valid written-reason suppression
	for _, v := range m {
		total += v
	}
	return total
}

// ShardedOrderedMerge is the route/CTS parallel idiom: collect and sort the
// keys, shard the sorted work list over per-worker partial accumulators via
// internal/par, then merge the partials in fixed block order. The only map
// range is the key-collection loop; accumulation and dispatch both run over
// slices, so nothing is flagged.
func ShardedOrderedMerge(m map[int]float64, workers int) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]float64, workers)
	par.Blocks(workers, len(keys), func(w, lo, hi int) {
		for _, k := range keys[lo:hi] {
			parts[w] += m[k]
		}
	})
	var total float64
	for _, p := range parts {
		total += p
	}
	return total
}

// CriticalBySlackMap mimics a broken version of the placer's timing
// checkpoint: collecting reweight candidates by ranging a slack map bakes
// the random iteration order into the candidate list, so a later
// tie-breaking sort cannot restore determinism for equal slacks. Flagged.
func CriticalBySlackMap(slack map[int32]float64) []float64 {
	var crit []float64
	for _, s := range slack { // want `maporder: .*appends a non-key value to a slice`
		if s < 0 {
			crit = append(crit, s)
		}
	}
	return crit
}

// CriticalBySortedNets is the shape the checkpoint actually uses: walk a
// deterministic net-index slice, read the map (or slice) by key, and sort
// with an explicit tie-break afterwards. The only map access is a keyed
// lookup, so nothing is flagged.
func CriticalBySortedNets(active []int32, slack map[int32]float64) []int32 {
	crit := make([]int32, 0, len(active))
	for _, ni := range active {
		if slack[ni] < 0 {
			crit = append(crit, ni)
		}
	}
	sort.Slice(crit, func(a, b int) bool {
		sa, sb := slack[crit[a]], slack[crit[b]]
		if sa != sb {
			return sa < sb
		}
		return crit[a] < crit[b]
	})
	return crit
}
