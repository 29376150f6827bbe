package cluster

import (
	"math/rand"
	"testing"

	"ppaclust/internal/hypergraph"
)

// randHypergraph builds an irregular hypergraph with mixed edge arities and
// weights — enough structure to exercise ties, the size cap and the budgeted
// priority pass.
func randHypergraph(n, edges int, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	h := hypergraph.NewWithCap(n, 0, 0)
	for v := 0; v < n; v++ {
		h.SetVertexWeight(v, 1+rng.Float64()*3)
	}
	for e := 0; e < edges; e++ {
		k := 2 + rng.Intn(5)
		verts := make([]int, 0, k)
		seen := map[int]bool{}
		for len(verts) < k {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
		h.AddEdge(verts, 0.25+rng.Float64())
	}
	return h
}

// TestFcPassDeterministicAcrossRuns guards the map-iteration fix: repeated
// runs with the same seed must give identical assignments (the old candidate
// pick iterated a Go map, whose order is randomized per run). The budgeted
// row starts within a factor two of its target, so its first pass is the
// priority pass (score scan, sorted visit order) and lands on the target
// exactly, where an unrestricted pass overshoots.
func TestFcPassDeterministicAcrossRuns(t *testing.T) {
	hb := randHypergraph(600, 1400, 42)
	tCost := make([]float64, hb.NumEdges())
	sCost := make([]float64, hb.NumEdges())
	crng := rand.New(rand.NewSource(7))
	for e := range tCost {
		tCost[e] = crng.Float64()
		sCost[e] = 1 + crng.Float64()
	}
	for _, tc := range []struct {
		name     string
		h        *hypergraph.Hypergraph
		opt      Options
		budgeted bool
	}{
		{"unrestricted", randHypergraph(400, 900, 11), Options{TargetClusters: 25, Seed: 13}, false},
		{"ppa-budget", hb, Options{TargetClusters: 320, Seed: 9, Alpha: 1, Beta: 0.8, Gamma: 0.5,
			EdgeTimingCost: tCost, EdgeSwitchCost: sCost}, true},
	} {
		base := MultilevelFC(tc.h, tc.opt)
		if tc.budgeted && base.NumClusters != tc.opt.TargetClusters {
			t.Fatalf("%s: fixture no longer reaches the budgeted priority pass: %d clusters for target %d",
				tc.name, base.NumClusters, tc.opt.TargetClusters)
		}
		for i := 0; i < 3; i++ {
			got := MultilevelFC(tc.h, tc.opt)
			for v := range base.Assign {
				if base.Assign[v] != got.Assign[v] {
					t.Fatalf("%s run %d: vertex %d assigned %d vs %d", tc.name, i, v, got.Assign[v], base.Assign[v])
				}
			}
		}
	}
}
