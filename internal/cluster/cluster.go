// Package cluster implements the paper's PPA-aware multilevel clustering: a
// First-Choice (FC) coarsening framework (after TritonPart [29]) whose
// heavy-edge rating is extended (Eq. 3) with per-hyperedge timing costs t_e
// (from critical-path slacks, as in [5]) and switching costs s_e (Eq. 2),
// subject to hierarchy-derived grouping constraints.
//
// Running with Beta=Gamma=0 and no groups reproduces the plain multilevel FC
// baseline the paper calls MFC (Table 5).
package cluster

import (
	"math"
	"math/rand"
	"sort"

	"ppaclust/internal/hypergraph"
)

// Options configures multilevel FC clustering.
type Options struct {
	// Alpha, Beta, Gamma scale connectivity, timing and switching terms of
	// the rating function (Eq. 3). Defaults: 1, 1, 1.
	Alpha, Beta, Gamma float64
	// TargetClusters stops coarsening once the vertex count reaches it.
	TargetClusters int
	// Seed drives the vertex visit order.
	Seed int64
	// Groups holds per-vertex grouping constraints (-1 = unconstrained).
	// During the guided phase, vertices in different groups are never
	// merged; an unconstrained vertex adopts the group of whatever it
	// merges with. Once within-group coarsening exhausts while the vertex
	// count is still above target, the constraints relax and whole groups
	// may merge (the "guides, not walls" reading of [5]).
	Groups []int
	// EdgeTimingCost is t_e per hyperedge (0 when absent).
	EdgeTimingCost []float64
	// EdgeSwitchCost is s_e per hyperedge (0 when absent; note Eq. 2 yields
	// values >= 1 for driven nets).
	EdgeSwitchCost []float64
	// Workers is ignored; kept for frozen benchmark/replay.go.
	Workers int
}

const (
	// maxEdgeSize: hyperedges larger than this are skipped during rating
	// (huge nets carry no locality information).
	maxEdgeSize = 300
	// maxLevels bounds the number of coarsening levels.
	maxLevels = 20
	// maxClusterFactor caps cluster weight at maxClusterFactor *
	// totalWeight/target.
	maxClusterFactor = 4
)

func (o Options) withDefaults(h *hypergraph.Hypergraph) Options {
	if o.Alpha == 0 && o.Beta == 0 && o.Gamma == 0 {
		o.Alpha = 1
	}
	if o.TargetClusters <= 0 {
		o.TargetClusters = defaultTarget(h.NumVertices())
	}
	return o
}

// defaultTarget picks a cluster count that shrinks the placement problem by
// roughly 400x, bounded to stay meaningful on tiny and huge designs. The
// paper's seed placement works on a few tens to hundreds of blob-scale
// clusters; coarse seeds both keep the clustered-placement runtime win and
// give the incremental placer freedom to recover detail.
func defaultTarget(n int) int {
	t := n / 400
	if t < 8 {
		t = 8
	}
	if t > 2000 {
		t = 2000
	}
	return t
}

// Result is the outcome of multilevel clustering.
type Result struct {
	// Assign maps each fine vertex to a dense cluster label.
	Assign []int
	// NumClusters is the number of distinct clusters.
	NumClusters int
	// Levels is the number of coarsening levels performed.
	Levels int
	// Singletons counts clusters of size one. Per the paper (footnote 2)
	// they are deliberately NOT merged together.
	Singletons int
}

// MultilevelFC coarsens h level by level using first-choice matching under
// the (optionally PPA-aware) rating of Eq. 3, and returns the fine-level
// cluster assignment.
func MultilevelFC(h *hypergraph.Hypergraph, opt Options) Result {
	opt = opt.withDefaults(h)
	rng := rand.New(rand.NewSource(opt.Seed))

	n := h.NumVertices()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	cur := h
	groups := opt.Groups
	tCost := opt.EdgeTimingCost
	sCost := opt.EdgeSwitchCost
	maxW := maxClusterFactor * h.TotalVertexWeight() / float64(opt.TargetClusters)

	levels := 0
	for cur.NumVertices() > opt.TargetClusters && levels < maxLevels {
		// Far from the target, run unrestricted FC passes; near it, spend
		// the remaining merge budget on the highest-rated pairs so the
		// result lands at the target instead of overshooting.
		budget := cur.NumVertices() - opt.TargetClusters
		if budget >= cur.NumVertices()/2 {
			budget = 0 // far from target: unrestricted pass
		}
		merge := fcPass(cur, groups, tCost, sCost, opt, maxW, budget, rng)
		con, err := cur.Contract(merge)
		if err != nil {
			break
		}
		if con.Coarse.NumVertices() >= cur.NumVertices() {
			if groups != nil {
				// No merge was possible under the guides: relax them so
				// whole hierarchy groups can merge toward the target.
				groups = nil
				continue
			}
			break // no progress
		}
		// Thread fine-level assignment through the new level.
		for i := range assign {
			assign[i] = con.VertexMap[assign[i]]
		}
		// Propagate groups and edge costs to the coarse level.
		if groups != nil {
			ng := make([]int, con.Coarse.NumVertices())
			for i := range ng {
				ng[i] = -1
			}
			for v, g := range groups {
				if g >= 0 {
					ng[con.VertexMap[v]] = g
				}
			}
			groups = ng
		}
		tCost = mapEdgeCost(tCost, con, cur.NumEdges())
		sCost = mapEdgeCost(sCost, con, cur.NumEdges())
		stalled := float64(con.Coarse.NumVertices()) > 0.98*float64(len(con.VertexMap))
		cur = con.Coarse
		levels++
		if stalled {
			if groups != nil {
				// Within-group coarsening is exhausted: relax the guides so
				// whole hierarchy groups can merge toward the target.
				groups = nil
				continue
			}
			break
		}
	}

	dense, k := densify(assign)
	res := Result{Assign: dense, NumClusters: k, Levels: levels}
	count := make([]int, k)
	for _, c := range dense {
		count[c]++
	}
	for _, c := range count {
		if c == 1 {
			res.Singletons++
		}
	}
	return res
}

// mapEdgeCost carries a per-edge cost array through a contraction, taking
// the max over fine edges that merge into one coarse edge.
func mapEdgeCost(cost []float64, con *hypergraph.Contraction, fineEdges int) []float64 {
	if cost == nil {
		return nil
	}
	out := make([]float64, con.Coarse.NumEdges())
	for e := 0; e < fineEdges; e++ {
		ce := con.EdgeMap[e]
		if ce >= 0 && cost[e] > out[ce] {
			out[ce] = cost[e]
		}
	}
	return out
}

// fcPass performs one first-choice matching pass and returns the merge map
// (vertex -> representative label).
func fcPass(h *hypergraph.Hypergraph, groups []int, tCost, sCost []float64,
	opt Options, maxW float64, budget int, rng *rand.Rand) []int {

	n := h.NumVertices()
	parent := make([]int, n)
	weight := make([]float64, n)
	grp := make([]int, n)
	for v := 0; v < n; v++ {
		parent[v] = v
		weight[v] = h.VertexWeight(v)
		if groups != nil {
			grp[v] = groups[v]
		} else {
			grp[v] = -1
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	if budget > 0 {
		// Priority pass: visit vertices in descending order of their best
		// candidate rating so the limited budget buys the best merges.
		score := make([]float64, n)
		for v := range score {
			for _, e := range h.Incident(v) {
				verts := h.Edge(e)
				if len(verts) < 2 || len(verts) > maxEdgeSize {
					continue
				}
				num := opt.Alpha * h.EdgeWeight(e)
				if tCost != nil {
					num += opt.Beta * tCost[e]
				}
				if sCost != nil {
					num += opt.Gamma * sCost[e]
				}
				score[v] += num / float64(len(verts)-1)
			}
		}
		sort.Slice(order, func(a, b int) bool {
			if score[order[a]] != score[order[b]] {
				return score[order[a]] > score[order[b]]
			}
			return order[a] < order[b]
		})
	}

	// Matching: each still-unmatched vertex, in visit order, merges into its
	// best-rated admissible neighbour cluster.
	sc := ratingScratch{idx: make(map[int]int)}
	for _, v := range order {
		if parent[v] != v {
			continue // already absorbed this pass
		}
		bestU := pick(sc.rate(h, parent, v, tCost, sCost, &opt), v, grp, weight, maxW)
		if bestU < 0 {
			continue
		}
		// Union: attach v under bestU.
		parent[v] = bestU
		weight[bestU] += weight[v]
		if grp[bestU] < 0 {
			grp[bestU] = grp[v]
		}
		if budget > 0 {
			budget--
			if budget == 0 {
				break // don't coarsen past the target
			}
		}
	}

	merge := make([]int, n)
	for v := 0; v < n; v++ {
		merge[v] = find(parent, v)
	}
	return merge
}

// find returns the root of v in the union-find forest, halving the path.
func find(parent []int, v int) int {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// ratedCand is one merge candidate of the vertex being visited.
type ratedCand struct {
	root int
	r    float64
}

// ratingScratch holds the reusable state of one rating scan.
type ratingScratch struct {
	idx   map[int]int
	cands []ratedCand
}

// rate accumulates the merge candidates of the root vertex v in first-touch
// order over v's incident edges. That order — not Go's randomized map
// iteration — is what pick consumes, so a rating scan is deterministic.
func (sc *ratingScratch) rate(h *hypergraph.Hypergraph, parent []int, v int,
	tCost, sCost []float64, opt *Options) []ratedCand {

	sc.cands = sc.cands[:0]
	clear(sc.idx)
	for _, e := range h.Incident(v) {
		verts := h.Edge(e)
		if len(verts) < 2 || len(verts) > maxEdgeSize {
			continue
		}
		num := opt.Alpha * h.EdgeWeight(e)
		if tCost != nil {
			num += opt.Beta * tCost[e]
		}
		if sCost != nil {
			num += opt.Gamma * sCost[e]
		}
		r := num / float64(len(verts)-1)
		for _, u := range verts {
			ru := find(parent, u)
			if ru == v {
				continue
			}
			pos, ok := sc.idx[ru]
			if !ok {
				pos = len(sc.cands)
				sc.idx[ru] = pos
				sc.cands = append(sc.cands, ratedCand{root: ru})
			}
			sc.cands[pos].r += r
		}
	}
	return sc.cands
}

// pick returns the best admissible candidate (or -1) under the epsilon
// tie-break, scanning candidates in their accumulation order.
func pick(cands []ratedCand, rv int, grp []int, weight []float64, maxW float64) int {
	bestU, bestR := -1, 0.0
	for _, c := range cands {
		if c.r <= 0 {
			continue
		}
		if grp[rv] >= 0 && grp[c.root] >= 0 && grp[rv] != grp[c.root] {
			continue // grouping constraint
		}
		if weight[rv]+weight[c.root] > maxW {
			continue // size cap
		}
		if c.r > bestR+1e-15 || (c.r > bestR-1e-15 && bestR > 0 && c.root < bestU) {
			bestU, bestR = c.root, c.r
		}
	}
	return bestU
}

func densify(assign []int) ([]int, int) {
	dense := map[int]int{}
	out := make([]int, len(assign))
	for i, c := range assign {
		id, ok := dense[c]
		if !ok {
			id = len(dense)
			dense[c] = id
		}
		out[i] = id
	}
	return out, len(dense)
}

// TimingCosts converts top-path slacks into per-hyperedge timing costs t_e,
// following the criticality weighting of [5]: each path p carries
// t_p = (1 - slack_p/T)^2 (clamped at 0), a hyperedge takes the worst
// criticality over the paths traversing it, and the result is normalized to
// max 1. Taking the max rather than the sum keeps t_e a *criticality*
// measure instead of a traversal-popularity measure.
//
// pathNets lists, per path, the hyperedge IDs the path traverses; slacks is
// aligned with pathNets; numEdges sizes the result.
func TimingCosts(pathNets [][]int, slacks []float64, clockPeriod float64, numEdges int) []float64 {
	t := make([]float64, numEdges)
	if clockPeriod <= 0 {
		return t
	}
	for i, nets := range pathNets {
		crit := 1 - slacks[i]/clockPeriod
		if crit <= 0 {
			continue
		}
		tp := crit * crit
		for _, e := range nets {
			if e >= 0 && e < numEdges && tp > t[e] {
				t[e] = tp
			}
		}
	}
	var max float64
	for _, v := range t {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for i := range t {
			t[i] /= max
		}
	}
	return t
}

// SwitchCosts computes per-hyperedge switching costs s_e per Eq. 2:
//
//	s_e = (1 + θ_e / Σθ)^μ
//
// where θ_e is the switching activity of edge e.
func SwitchCosts(activity []float64, mu float64) []float64 {
	if mu == 0 {
		mu = 2
	}
	var total float64
	for _, a := range activity {
		total += a
	}
	out := make([]float64, len(activity))
	if total <= 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, a := range activity {
		out[i] = math.Pow(1+a/total, mu)
	}
	return out
}

// Sizes returns the size of each cluster in a dense assignment.
func Sizes(assign []int, k int) []int {
	out := make([]int, k)
	for _, c := range assign {
		out[c]++
	}
	return out
}
