package route

// Rectilinear Steiner tree decomposition: the classic iterated 1-Steiner
// heuristic on the Hanan grid, applied to small and mid-size nets before
// pattern routing. Compared to plain MST decomposition it shortens
// multi-terminal nets by up to 1/3 (the textbook 3-terminal L case), which
// is what real global routers (FastRoute's FLUTE topologies) rely on.

import (
	"math"
	"slices"

	"ppaclust/internal/sortx"
)

// maxSteinerPins bounds the iterated 1-Steiner search; smaller or larger
// nets fall back to MST / chain decomposition.
const maxSteinerPins = 16

// decScratch holds one worker's decomposition scratch: the Prim MST state,
// the radix-sort buffers for huge-net chains, and the point set, Hanan grid
// and per-point insertion weights of the 1-Steiner search. Reusing it across
// nets keeps the per-net hot loop allocation-free on every path (gated by
// TestDecomposeHotLoopAllocFree and TestSteinerHotLoopAllocFree).
type decScratch struct {
	inTree []bool
	dist   []int
	from   []int
	keys   []uint64
	ord    []int32
	sorter sortx.Sorter
	pts    [2 * maxSteinerPins][2]int
	xs, ys [maxSteinerPins]int
	taken  [maxSteinerPins * maxSteinerPins]bool
	up     [2 * maxSteinerPins]int
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
	sc.mst(cells)
	return sc.treeSegments(cells, out)
}

// treeSegments appends the edges of the tree the last mst call built on
// cells, child by child in joining order.
func (sc *decScratch) treeSegments(cells [][2]int, out [][4]int) [][4]int {
	for _, v := range sc.ord[1:len(cells)] {
		p := cells[sc.from[v]]
		out = append(out, [4]int{p[0], p[1], cells[v][0], cells[v][1]})
	}
	return out
}

// mst runs Prim from cells[0] and returns the tree's length. sc.ord[:n]
// holds the vertices in the order they joined (parents before children),
// sc.from[v] the parent of v and sc.dist[v] the length of that edge; ties go
// to the lowest index.
func (sc *decScratch) mst(cells [][2]int) int {
	n := len(cells)
	if cap(sc.inTree) < n {
		sc.inTree = make([]bool, n)
		sc.dist = make([]int, n)
		sc.from = make([]int, n)
	}
	if cap(sc.ord) < n {
		sc.ord = make([]int32, n)
	}
	inTree, dist, from, ord := sc.inTree[:n], sc.dist[:n], sc.from[:n], sc.ord[:n]
	for i := range cells {
		inTree[i], dist[i], from[i] = false, manhattan(cells[0], cells[i]), 0
	}
	inTree[0] = true
	total := 0
	for k := 1; k < n; k++ {
		best, bestD := -1, math.MaxInt
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		ord[k] = int32(best)
		total += bestD
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := manhattan(cells[best], cells[i]); d < dist[i] {
					dist[i] = d
					from[i] = best
				}
			}
		}
	}
	return total
}

// steiner appends 2-pin segments connecting all cells, possibly through
// added Steiner points, for nets with 3..maxSteinerPins terminals. Smaller
// or larger nets take the pure MST / chain path above. The search assumes
// the grown point set (at most 2·maxSteinerPins−2 points) stays within
// maxPins, so every length it compares is an MST length.
func (sc *decScratch) steiner(cells [][2]int, maxPins int, out [][4]int) [][4]int {
	if len(cells) < 3 || len(cells) > maxSteinerPins {
		return sc.decompose(cells, maxPins, out)
	}
	pts := append(sc.pts[:0], cells...)
	terminals := len(pts)
	// The Hanan grid: distinct x and y values in order of their first
	// terminal, so candidate (xs[i], ys[j]) comes up in the order the
	// (a, b) terminal pairs first produce it, and taken marks the grid
	// points already in the set.
	xs, ys := sc.xs[:0], sc.ys[:0]
	for _, p := range pts {
		if !slices.Contains(xs, p[0]) {
			xs = append(xs, p[0])
		}
		if !slices.Contains(ys, p[1]) {
			ys = append(ys, p[1])
		}
	}
	ny := len(ys)
	taken := sc.taken[:len(xs)*ny]
	clear(taken)
	for _, p := range pts {
		taken[slices.Index(xs, p[0])*ny+slices.Index(ys, p[1])] = true
	}

	// Iterated 1-Steiner: greedily add the Hanan-grid point with the best
	// gain until no point helps. Bounded by #terminals additions. A
	// candidate c is priced from the current tree T, since
	// MST(P∪{c}) ⊆ T ∪ star(c), by Chin–Houck insertion: up[v] starts as
	// the length of edge (v, c); children first, each vertex keeps the
	// lighter of its parent edge and up[v] and offers the heavier to its
	// parent, whose up takes the minimum; the root's up closes the tree.
	// Lengths are integers, so every gain equals the one a fresh Prim run
	// gives.
	for added := 0; added < terminals-2; added++ {
		base := sc.mst(pts)
		n := len(pts)
		up, ord, from, edge := sc.up[:n], sc.ord[1:n], sc.from[:n], sc.dist[:n]
		bestGain, bestI, bestJ := 0, 0, 0
		for i, x := range xs {
			for j, y := range ys {
				if taken[i*ny+j] {
					continue
				}
				for v, p := range pts {
					up[v] = abs(p[0]-x) + abs(p[1]-y)
				}
				total := 0
				for k := len(ord) - 1; k >= 0; k-- {
					v, p := ord[k], from[ord[k]]
					t, e := up[v], edge[v]
					if t > e {
						t, e = e, t
					}
					total += t
					if e < up[p] {
						up[p] = e
					}
				}
				if g := base - total - up[0]; g > bestGain {
					bestGain, bestI, bestJ = g, i, j
				}
			}
		}
		if bestGain <= 0 {
			// No point helps: the tree just priced against is the result,
			// the one decompose would build again.
			if len(pts) <= maxPins {
				return sc.treeSegments(pts, out)
			}
			break
		}
		pts = append(pts, [2]int{xs[bestI], ys[bestJ]})
		taken[bestI*ny+bestJ] = true
	}
	// Prune Steiner points of degree <= 1 implicitly: decompose() on the
	// final point set yields the tree; degree-1 Steiner points can only
	// appear if they did not improve length, which the gain test excludes.
	return sc.decompose(pts, maxPins, out)
}
