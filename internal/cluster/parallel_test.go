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
	h := hypergraph.New(n)
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

// TestMultilevelFCWorkersEquivalent asserts the determinism contract: the
// cluster assignment with Workers=2 and 4 is identical (not just
// statistically similar) to Workers=1, across plain, grouped, and
// PPA-weighted runs. Workers bounds the priority-score scan and the
// contraction; the budget row is the one that reaches the score scan.
func TestMultilevelFCWorkersEquivalent(t *testing.T) {
	type fixture struct {
		name string
		h    *hypergraph.Hypergraph
		opt  Options
		// budgeted rows start within a factor two of the target, so their
		// first pass is the budgeted priority pass and lands on it exactly
		// (the unrestricted pass of the other rows overshoots).
		budgeted bool
	}
	hr := randHypergraph(600, 1400, 42)
	tCost := make([]float64, hr.NumEdges())
	sCost := make([]float64, hr.NumEdges())
	crng := rand.New(rand.NewSource(7))
	for e := range tCost {
		tCost[e] = crng.Float64()
		sCost[e] = 1 + crng.Float64()
	}
	groups := make([]int, 600)
	for v := range groups {
		groups[v] = -1
		if v < 300 {
			groups[v] = v % 3
		}
	}
	fixtures := []fixture{
		{"blocks", blocks(20, 30), Options{TargetClusters: 20, Seed: 5}, false},
		{"random-ppa", hr, Options{TargetClusters: 40, Seed: 9,
			Alpha: 1, Beta: 0.8, Gamma: 0.5,
			EdgeTimingCost: tCost, EdgeSwitchCost: sCost}, false},
		{"random-groups", hr, Options{TargetClusters: 30, Seed: 3, Groups: groups}, false},
		{"random-ppa-budget", hr, Options{TargetClusters: 320, Seed: 9,
			Alpha: 1, Beta: 0.8, Gamma: 0.5,
			EdgeTimingCost: tCost, EdgeSwitchCost: sCost}, true},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			seq := fx.opt
			seq.Workers = 1
			rs := MultilevelFC(fx.h, seq)
			if fx.budgeted && rs.NumClusters != fx.opt.TargetClusters {
				t.Fatalf("fixture no longer reaches the budgeted priority pass: %d clusters for target %d",
					rs.NumClusters, fx.opt.TargetClusters)
			}
			for _, workers := range []int{2, 4} {
				pp := fx.opt
				pp.Workers = workers
				rp := MultilevelFC(fx.h, pp)
				if rs.NumClusters != rp.NumClusters || rs.Levels != rp.Levels ||
					rs.Singletons != rp.Singletons {
					t.Fatalf("summary differs: W=1 %d/%d/%d, W=%d %d/%d/%d", rs.NumClusters, rs.Levels,
						rs.Singletons, workers, rp.NumClusters, rp.Levels, rp.Singletons)
				}
				for v := range rs.Assign {
					if rs.Assign[v] != rp.Assign[v] {
						t.Fatalf("vertex %d assigned %d (W=1) vs %d (W=%d)",
							v, rs.Assign[v], rp.Assign[v], workers)
					}
				}
			}
		})
	}
}

// TestFcPassDeterministicAcrossRuns guards the map-iteration fix: repeated
// runs with the same seed must give identical assignments (the old candidate
// pick iterated a Go map, whose order is randomized per run).
func TestFcPassDeterministicAcrossRuns(t *testing.T) {
	h := randHypergraph(400, 900, 11)
	opt := Options{TargetClusters: 25, Seed: 13, Workers: 1}
	base := MultilevelFC(h, opt)
	for i := 0; i < 3; i++ {
		got := MultilevelFC(h, opt)
		for v := range base.Assign {
			if base.Assign[v] != got.Assign[v] {
				t.Fatalf("run %d: vertex %d assigned %d vs %d", i, v, got.Assign[v], base.Assign[v])
			}
		}
	}
}
