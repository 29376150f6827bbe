package hypergraph

import "sort"

// Graph is a weighted undirected graph with dense vertex IDs, produced by
// clique expansion of a hypergraph and consumed by community detection and
// graph-feature extraction. Parallel edges added before Finish are merged.
type Graph struct {
	n        int
	adj      [][]Half
	selfLoop []float64
	totalW   float64
	finished bool
}

// Half is one directed half of an undirected edge.
type Half struct {
	To     int
	Weight float64
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{
		n:        n,
		adj:      make([][]Half, n),
		selfLoop: make([]float64, n),
	}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// AddEdge accumulates an undirected edge (u,v) with weight w. A self loop
// (u == v) is stored separately; community detection counts it once.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		g.selfLoop[u] += w
		g.totalW += w
		return
	}
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Half{To: u, Weight: w})
	g.totalW += w
}

// Finish merges parallel edges. It must be called once after all AddEdge
// calls and before any traversal.
func (g *Graph) Finish() {
	if g.finished {
		return
	}
	for v := range g.adj {
		hs := g.adj[v]
		if len(hs) < 2 {
			continue
		}
		sort.Slice(hs, func(i, j int) bool { return hs[i].To < hs[j].To })
		out := hs[:0]
		for _, h := range hs {
			if n := len(out); n > 0 && out[n-1].To == h.To {
				out[n-1].Weight += h.Weight
			} else {
				out = append(out, h)
			}
		}
		g.adj[v] = out
	}
	g.finished = true
}

// Adj returns the merged adjacency of v. Finish must have been called.
func (g *Graph) Adj(v int) []Half { return g.adj[v] }

// SelfLoop returns the accumulated self-loop weight at v.
func (g *Graph) SelfLoop(v int) float64 { return g.selfLoop[v] }

// TotalWeight returns the sum of all undirected edge weights (self loops
// counted once).
func (g *Graph) TotalWeight() float64 { return g.totalW }

// WeightedDegree returns the total incident edge weight of v, counting self
// loops twice (the convention used by modularity).
func (g *Graph) WeightedDegree(v int) float64 {
	d := 2 * g.selfLoop[v]
	for _, h := range g.adj[v] {
		d += h.Weight
	}
	return d
}
