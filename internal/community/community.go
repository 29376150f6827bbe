// Package community implements modularity-based community detection:
// Louvain (Blondel et al., 2008) and Leiden (Traag et al., 2019). These are
// the clustering baselines the paper compares against — blob placement [9]
// uses Louvain, and Table 5 compares against Leiden — and they operate on the
// clique expansion of the netlist hypergraph.
package community

import (
	"math/rand"
	"sort"

	"ppaclust/internal/hypergraph"
)

// Options configures community detection.
type Options struct {
	Resolution float64 // modularity resolution γ (default 1)
	Seed       int64   // RNG seed for vertex visit order
}

const (
	maxLevels = 10 // aggregation levels
	maxPasses = 10 // local-moving passes per level
)

func (o Options) withDefaults() Options {
	if o.Resolution <= 0 {
		o.Resolution = 1
	}
	return o
}

// Modularity returns the weighted modularity of the assignment at the given
// resolution. Self-loops count via the standard A_ii = 2*loop convention.
func Modularity(g *hypergraph.Graph, assign []int, resolution float64) float64 {
	m := g.TotalWeight()
	if m <= 0 {
		return 0
	}
	intra := map[int]float64{}
	tot := map[int]float64{}
	for v := 0; v < g.NumVertices(); v++ {
		c := assign[v]
		tot[c] += g.WeightedDegree(v)
		intra[c] += 2 * g.SelfLoop(v)
		for _, h := range g.Adj(v) {
			if assign[h.To] == c {
				intra[c] += h.Weight // counted from both ends -> 2*w total
			}
		}
	}
	// Sum in ascending community ID: a map-order sum changes in the last
	// bits from call to call. intra and tot have the same keys.
	ids := make([]int, 0, len(tot))
	for c := range tot {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	var q float64
	for _, c := range ids {
		q += intra[c]/(2*m) - resolution*(tot[c]/(2*m))*(tot[c]/(2*m))
	}
	return q
}

// state holds the mutable local-moving bookkeeping for one level.
type state struct {
	g      *hypergraph.Graph
	assign []int
	tot    []float64 // per community: sum of weighted degrees
	m      float64
	gamma  float64
}

func newState(g *hypergraph.Graph, gamma float64) *state {
	n := g.NumVertices()
	s := &state{
		g:      g,
		assign: make([]int, n),
		tot:    make([]float64, n),
		m:      g.TotalWeight(),
		gamma:  gamma,
	}
	for v := 0; v < n; v++ {
		s.assign[v] = v
		s.tot[v] = g.WeightedDegree(v)
	}
	return s
}

// localMove runs one pass of Louvain local moving; returns #moves.
func (s *state) localMove(order []int) int {
	moves := 0
	links := map[int]float64{}
	for _, v := range order {
		cv := s.assign[v]
		kv := s.g.WeightedDegree(v)
		// Weights to neighboring communities.
		for k := range links {
			delete(links, k)
		}
		for _, h := range s.g.Adj(v) {
			links[s.assign[h.To]] += h.Weight
		}
		// Remove v from its community.
		s.tot[cv] -= kv
		bestC, bestGain := cv, links[cv]-s.gamma*kv*s.tot[cv]/(2*s.m)
		for c, w := range links {
			if c == cv {
				continue
			}
			gain := w - s.gamma*kv*s.tot[c]/(2*s.m)
			if gain > bestGain+1e-15 || (gain > bestGain-1e-15 && c < bestC) {
				bestC, bestGain = c, gain
			}
		}
		s.tot[bestC] += kv
		if bestC != cv {
			s.assign[v] = bestC
			moves++
		}
	}
	return moves
}

func shuffled(n int, rng *rand.Rand) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// aggregate builds the community graph of g under assign (dense labels).
func aggregate(g *hypergraph.Graph, assign []int, k int) *hypergraph.Graph {
	ag := hypergraph.NewGraph(k)
	for v := 0; v < g.NumVertices(); v++ {
		cv := assign[v]
		if l := g.SelfLoop(v); l > 0 {
			ag.AddEdge(cv, cv, l)
		}
		for _, h := range g.Adj(v) {
			if h.To > v {
				ag.AddEdge(cv, assign[h.To], h.Weight)
			}
		}
	}
	ag.Finish()
	return ag
}

// Louvain runs the Louvain method and returns a dense community assignment.
func Louvain(g *hypergraph.Graph, opt Options) []int {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	// assignment of original vertices, starts as identity through levels
	final := make([]int, g.NumVertices())
	for i := range final {
		final[i] = i
	}
	cur := g
	for level := 0; level < maxLevels; level++ {
		s := newState(cur, opt.Resolution)
		totalMoves := 0
		for pass := 0; pass < maxPasses; pass++ {
			moves := s.localMove(shuffled(cur.NumVertices(), rng))
			totalMoves += moves
			if moves == 0 {
				break
			}
		}
		dense, k := hypergraph.Densify(s.assign)
		if totalMoves == 0 || k == cur.NumVertices() {
			break
		}
		for i := range final {
			final[i] = dense[final[i]]
		}
		if k <= 1 {
			break
		}
		cur = aggregate(cur, dense, k)
	}
	out, _ := hypergraph.Densify(final)
	return out
}

// Leiden runs the Leiden method: local moving, refinement within
// communities, then aggregation on the refined partition with the community
// partition as the initial assignment of the aggregate graph. It guarantees
// that returned communities are internally connected.
func Leiden(g *hypergraph.Graph, opt Options) []int {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	final := make([]int, g.NumVertices())
	for i := range final {
		final[i] = i
	}
	cur := g
	// comm carries the community assignment of cur's vertices between levels.
	for level := 0; level < maxLevels; level++ {
		s := newState(cur, opt.Resolution)
		totalMoves := 0
		for pass := 0; pass < maxPasses; pass++ {
			moves := s.localMove(shuffled(cur.NumVertices(), rng))
			totalMoves += moves
			if moves == 0 {
				break
			}
		}
		comm, k := hypergraph.Densify(s.assign)
		if totalMoves == 0 || k == cur.NumVertices() {
			break
		}
		// Refinement: split each community into connected sub-communities.
		refined := refine(cur, comm, opt.Resolution, rng)
		rdense, rk := hypergraph.Densify(refined)
		for i := range final {
			final[i] = rdense[final[i]]
		}
		if rk <= 1 || rk == cur.NumVertices() {
			break
		}
		cur = aggregate(cur, rdense, rk)
	}
	out, _ := hypergraph.Densify(final)
	return out
}

// refine re-partitions each community into well-connected sub-communities:
// starting from singletons, each vertex merges into the best positive-gain
// sub-community within its own community. This is the determinism-friendly
// variant of Leiden's randomized merge step.
func refine(g *hypergraph.Graph, comm []int, gamma float64, rng *rand.Rand) []int {
	n := g.NumVertices()
	sub := make([]int, n)
	for i := range sub {
		sub[i] = i
	}
	subTot := make([]float64, n)
	for v := 0; v < n; v++ {
		subTot[v] = g.WeightedDegree(v)
	}
	m := g.TotalWeight()
	order := shuffled(n, rng)
	links := map[int]float64{}
	for _, v := range order {
		if sub[v] != v || subTot[v] != g.WeightedDegree(v) {
			// Only singleton sub-communities move (Leiden's rule keeps
			// refinement cheap and guarantees connectivity).
			continue
		}
		for k := range links {
			delete(links, k)
		}
		for _, h := range g.Adj(v) {
			if comm[h.To] == comm[v] {
				links[sub[h.To]] += h.Weight
			}
		}
		kv := g.WeightedDegree(v)
		bestC, bestGain := sub[v], 0.0
		for c, w := range links {
			if c == sub[v] {
				continue
			}
			gain := w - gamma*kv*subTot[c]/(2*m)
			if gain > bestGain+1e-15 || (gain > bestGain-1e-15 && gain > 0 && c < bestC) {
				bestC, bestGain = c, gain
			}
		}
		if bestC != sub[v] {
			subTot[bestC] += kv
			subTot[sub[v]] -= kv
			sub[v] = bestC
		}
	}
	return sub
}

// NumCommunities returns the number of distinct labels in a dense assignment.
func NumCommunities(assign []int) int {
	max := -1
	for _, c := range assign {
		if c > max {
			max = c
		}
	}
	return max + 1
}
