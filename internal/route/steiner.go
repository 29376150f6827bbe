package route

// Rectilinear Steiner tree decomposition: the classic iterated 1-Steiner
// heuristic on the Hanan grid, applied to small and mid-size nets before
// pattern routing. Compared to plain MST decomposition it shortens
// multi-terminal nets by up to 1/3 (the textbook 3-terminal L case), which
// is what real global routers (FastRoute's FLUTE topologies) rely on.

import (
	"math"

	"ppaclust/internal/sortx"
)

// maxSteinerPins bounds the iterated 1-Steiner search; smaller or larger
// nets fall back to MST / chain decomposition.
const maxSteinerPins = 16

// decScratch holds one worker's decomposition scratch: the Prim MST state,
// the radix-sort buffers for huge-net chains, and the candidate point set of
// the 1-Steiner search. Reusing it across nets keeps the per-net hot loop
// allocation-free for the MST and chain paths (gated by
// TestDecomposeHotLoopAllocFree).
type decScratch struct {
	inTree []bool
	dist   []int
	from   []int
	keys   []uint64
	ord    []int32
	sorter sortx.Sorter
	pts    [][2]int
	tmp    [][4]int
}

// decompose splits a multi-terminal net into 2-pin segments appended to out:
// Prim MST for small nets, a sorted chain for huge nets (e.g. the
// unsynthesized clock). The chain ordering uses the shared radix sort on
// (i+j, i) keys — unique per deduplicated GCell, so the chain matches the
// comparator sort it replaced.
func (sc *decScratch) decompose(cells [][2]int, maxPins int, out [][4]int) [][4]int {
	n := len(cells)
	if n > maxPins {
		if cap(sc.keys) < n {
			sc.keys = make([]uint64, n)
			sc.ord = make([]int32, n)
		}
		keys := sc.keys[:n]
		ord := sc.ord[:n]
		for i, c := range cells {
			keys[i] = uint64(uint32(c[0]+c[1]))<<32 | uint64(uint32(c[0]))
		}
		sc.sorter.IndexByKeys(ord, keys)
		prev := cells[ord[0]]
		for i := 1; i < n; i++ {
			cur := cells[ord[i]]
			out = append(out, [4]int{prev[0], prev[1], cur[0], cur[1]})
			prev = cur
		}
		return out
	}
	if cap(sc.inTree) < n {
		sc.inTree = make([]bool, n)
		sc.dist = make([]int, n)
		sc.from = make([]int, n)
	}
	inTree := sc.inTree[:n]
	dist := sc.dist[:n]
	from := sc.from[:n]
	for i := 0; i < n; i++ {
		inTree[i] = false
		dist[i] = math.MaxInt32
		from[i] = 0
	}
	inTree[0] = true
	for i := 1; i < n; i++ {
		dist[i] = manhattan(cells[0], cells[i])
	}
	for k := 1; k < n; k++ {
		best, bestD := -1, math.MaxInt32
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		if best < 0 {
			break
		}
		inTree[best] = true
		out = append(out, [4]int{cells[from[best]][0], cells[from[best]][1], cells[best][0], cells[best][1]})
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := manhattan(cells[best], cells[i]); d < dist[i] {
					dist[i] = d
					from[i] = best
				}
			}
		}
	}
	return out
}

// steiner appends 2-pin segments connecting all cells, possibly through
// added Steiner points, for nets with 3..maxSteinerPins terminals. Smaller
// or larger nets take the pure MST / chain path above.
func (sc *decScratch) steiner(cells [][2]int, maxPins int, out [][4]int) [][4]int {
	if len(cells) < 3 || len(cells) > maxSteinerPins {
		return sc.decompose(cells, maxPins, out)
	}
	pts := append(sc.pts[:0], cells...)
	terminals := len(pts)

	mstLen := func(ps [][2]int) int {
		sc.tmp = sc.decompose(ps, maxPins, sc.tmp[:0])
		total := 0
		for _, s := range sc.tmp {
			total += abs(s[2]-s[0]) + abs(s[3]-s[1])
		}
		return total
	}

	base := mstLen(pts)
	// Iterated 1-Steiner: greedily add the Hanan-grid point with the best
	// gain until no point helps. Bounded by #terminals additions.
	for added := 0; added < terminals-2; added++ {
		bestGain := 0
		var bestPt [2]int
		seen := map[[2]int]bool{}
		for _, p := range pts {
			seen[p] = true
		}
		for _, a := range pts[:terminals] {
			for _, b := range pts[:terminals] {
				cand := [2]int{a[0], b[1]}
				if seen[cand] {
					continue
				}
				seen[cand] = true
				trial := append(pts, cand)
				if g := base - mstLen(trial); g > bestGain {
					bestGain = g
					bestPt = cand
				}
			}
		}
		if bestGain <= 0 {
			break
		}
		pts = append(pts, bestPt)
		base -= bestGain
	}
	sc.pts = pts
	// Prune Steiner points of degree <= 1 implicitly: decompose() on the
	// final point set yields the tree; degree-1 Steiner points can only
	// appear if they did not improve length, which the gain test excludes.
	return sc.decompose(pts, maxPins, out)
}
