package hypergraph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func buildSample() *Hypergraph {
	// Six vertices, two natural clusters {0,1,2} and {3,4,5}, one cut edge.
	h := NewWithCap(6, 0, 0)
	for v := 0; v < 6; v++ {
		h.SetVertexWeight(v, 1)
	}
	h.AddEdge([]int{0, 1}, 1)
	h.AddEdge([]int{1, 2}, 1)
	h.AddEdge([]int{0, 2}, 1)
	h.AddEdge([]int{3, 4}, 1)
	h.AddEdge([]int{4, 5}, 1)
	h.AddEdge([]int{3, 5}, 1)
	h.AddEdge([]int{2, 3}, 1)
	return h
}

func TestBasicCounts(t *testing.T) {
	h := buildSample()
	if h.NumVertices() != 6 || h.NumEdges() != 7 || h.NumPins() != 14 {
		t.Fatalf("got V=%d E=%d P=%d", h.NumVertices(), h.NumEdges(), h.NumPins())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(h.Incident(2)); got != 3 {
		t.Fatalf("degree(2)=%d want 3", got)
	}
}

func TestAddEdgeDedupes(t *testing.T) {
	h := NewWithCap(3, 0, 0)
	e := h.AddEdge([]int{2, 0, 2, 1, 0}, 1.5)
	if got := h.Edge(e); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("edge=%v", got)
	}
	if h.NumPins() != 3 {
		t.Fatalf("pins=%d", h.NumPins())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWithCap(2, 0, 0).AddEdge([]int{0, 5}, 1)
}

func TestCutSize(t *testing.T) {
	h := buildSample()
	cut := h.CutSize([]int{0, 0, 0, 1, 1, 1})
	if cut != 1 {
		t.Fatalf("cut=%v want 1", cut)
	}
	if got := h.CutSize([]int{0, 0, 0, 0, 0, 0}); got != 0 {
		t.Fatalf("single-cluster cut=%v", got)
	}
	if got := h.CutSize([]int{0, 1, 2, 3, 4, 5}); got != 7 {
		t.Fatalf("all-singleton cut=%v want 7", got)
	}
}

func TestContract(t *testing.T) {
	h := buildSample()
	c, err := h.Contract([]int{7, 7, 7, 9, 9, 9}) // sparse labels allowed
	if err != nil {
		t.Fatal(err)
	}
	g := c.Coarse
	if g.NumVertices() != 2 {
		t.Fatalf("coarse V=%d", g.NumVertices())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("coarse E=%d want 1 (internal edges dropped, cut edge kept)", g.NumEdges())
	}
	if g.EdgeWeight(0) != 1 {
		t.Fatalf("coarse edge weight=%v", g.EdgeWeight(0))
	}
	if g.VertexWeight(0) != 3 || g.VertexWeight(1) != 3 {
		t.Fatalf("coarse weights %v %v", g.VertexWeight(0), g.VertexWeight(1))
	}
	// Edge map: the six intra edges map to -1, the cut edge to 0.
	for e := 0; e < 6; e++ {
		if c.EdgeMap[e] != -1 {
			t.Fatalf("edge %d mapped to %d, want -1", e, c.EdgeMap[e])
		}
	}
	if c.EdgeMap[6] != 0 {
		t.Fatalf("cut edge mapped to %d", c.EdgeMap[6])
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractMergesParallelEdges(t *testing.T) {
	h := NewWithCap(4, 0, 0)
	h.AddEdge([]int{0, 2}, 1)
	h.AddEdge([]int{1, 3}, 2)
	h.AddEdge([]int{0, 3}, 4)
	c, err := h.Contract([]int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Coarse.NumEdges() != 1 {
		t.Fatalf("E=%d want 1", c.Coarse.NumEdges())
	}
	if c.Coarse.EdgeWeight(0) != 7 {
		t.Fatalf("w=%v want 7", c.Coarse.EdgeWeight(0))
	}
}

func TestContractBadMap(t *testing.T) {
	h := buildSample()
	if _, err := h.Contract([]int{0, 1}); err == nil {
		t.Fatal("expected error for short cluster map")
	}
}

func TestClusterStats(t *testing.T) {
	h := buildSample()
	stats := h.clusterStatsFor([]int{0, 0, 0, 1, 1, 1})
	s0 := stats[0]
	if s0.Size != 3 || s0.ExternalEdge != 1 || s0.ExternalPins != 1 || s0.InternalPins != 6 {
		t.Fatalf("stats0=%+v", *s0)
	}
	r := s0.rentExponent()
	want := math.Log(1.0/7.0)/math.Log(3.0) + 1
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("rent=%v want %v", r, want)
	}
}

func TestRentDegenerate(t *testing.T) {
	if !math.IsNaN((clusterStats{Size: 1, ExternalEdge: 2, ExternalPins: 2}).rentExponent()) {
		t.Fatal("singleton should be NaN")
	}
	if !math.IsNaN((clusterStats{Size: 3}).rentExponent()) {
		t.Fatal("pinless cluster should be NaN")
	}
}

func TestWeightedAvgRentPrefersGoodClustering(t *testing.T) {
	h := buildSample()
	good := h.WeightedAvgRent([]int{0, 0, 0, 1, 1, 1})
	bad := h.WeightedAvgRent([]int{0, 1, 0, 1, 0, 1})
	if !(good < bad) {
		t.Fatalf("good=%v should beat bad=%v", good, bad)
	}
}

// TestWeightedAvgRentDeterministic pins the maporder fix: R_avg must be
// bit-identical across repeated evaluations. Before the fix the
// size-weighted sum ran in map-iteration order, so float non-associativity
// let the result wobble between runs on many-cluster inputs; summing in
// sorted cluster order is the same multiset sum with a fixed bracketing.
func TestWeightedAvgRentDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	h := NewWithCap(n, 0, 0)
	for v := 0; v < n; v++ {
		h.SetVertexWeight(v, 1+rng.Float64())
	}
	for e := 0; e < 900; e++ {
		deg := 2 + rng.Intn(4)
		verts := make([]int, deg)
		for i := range verts {
			verts[i] = rng.Intn(n)
		}
		h.AddEdge(verts, 1)
	}
	clusterOf := make([]int, n)
	for v := range clusterOf {
		clusterOf[v] = rng.Intn(60)
	}
	want := h.WeightedAvgRent(clusterOf)
	if math.IsNaN(want) {
		t.Fatal("R_avg is NaN on a connected sample")
	}
	for i := 0; i < 20; i++ {
		if got := h.WeightedAvgRent(clusterOf); got != want {
			t.Fatalf("run %d: R_avg = %v, want bit-identical %v", i, got, want)
		}
	}
}

func TestCliqueExpand(t *testing.T) {
	h := NewWithCap(3, 0, 0)
	h.AddEdge([]int{0, 1, 2}, 2) // clique weight 2/(3-1) = 1 per pair
	h.AddEdge([]int{0, 1}, 3)    // extra 3 on pair (0,1)
	g := h.CliqueExpand()
	var w01 float64
	for _, half := range g.Adj(0) {
		if half.To == 1 {
			w01 = half.Weight
		}
	}
	if w01 != 4 {
		t.Fatalf("w(0,1)=%v want 4", w01)
	}
	if g.WeightedDegree(2) != 2 {
		t.Fatalf("wdeg(2)=%v want 2", g.WeightedDegree(2))
	}
}

func TestGraphSelfLoopAndMerge(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2)
	g.AddEdge(0, 0, 5)
	g.Finish()
	if len(g.Adj(0)) != 1 || g.Adj(0)[0].Weight != 3 {
		t.Fatalf("adj(0)=%v", g.Adj(0))
	}
	if g.SelfLoop(0) != 5 {
		t.Fatalf("selfloop=%v", g.SelfLoop(0))
	}
	if g.WeightedDegree(0) != 13 {
		t.Fatalf("wdeg=%v want 13 (2*5+3)", g.WeightedDegree(0))
	}
	if g.TotalWeight() != 8 {
		t.Fatalf("total=%v want 8", g.TotalWeight())
	}
}

// randomHypergraph builds a reproducible random hypergraph for property tests.
func randomHypergraph(rng *rand.Rand, nv, ne int) *Hypergraph {
	h := NewWithCap(nv, 0, 0)
	for v := 0; v < nv; v++ {
		h.SetVertexWeight(v, 1+rng.Float64())
	}
	for e := 0; e < ne; e++ {
		k := 2 + rng.Intn(4)
		verts := make([]int, k)
		for i := range verts {
			verts[i] = rng.Intn(nv)
		}
		h.AddEdge(verts, 0.5+rng.Float64())
	}
	return h
}

func TestPropertyContractPreservesWeightAndCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 5 + rng.Intn(40)
		h := randomHypergraph(rng, nv, nv*2)
		clusterOf := make([]int, nv)
		k := 1 + rng.Intn(6)
		for v := range clusterOf {
			clusterOf[v] = rng.Intn(k)
		}
		c, err := h.Contract(clusterOf)
		if err != nil {
			return false
		}
		// Total vertex weight is preserved.
		if math.Abs(c.Coarse.TotalVertexWeight()-h.TotalVertexWeight()) > 1e-9 {
			return false
		}
		// Total coarse edge weight equals the fine cut under clusterOf.
		var coarseW float64
		for e := 0; e < c.Coarse.NumEdges(); e++ {
			coarseW += c.Coarse.EdgeWeight(e)
		}
		if math.Abs(coarseW-h.CutSize(clusterOf)) > 1e-9 {
			return false
		}
		// EdgeMap is consistent: fine edge spans >1 cluster iff mapped.
		for e := 0; e < h.NumEdges(); e++ {
			verts := h.Edge(e)
			span := map[int]bool{}
			for _, v := range verts {
				span[clusterOf[v]] = true
			}
			if (len(span) > 1) != (c.EdgeMap[e] >= 0) {
				return false
			}
		}
		return c.Coarse.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRentExponentBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 6 + rng.Intn(30)
		h := randomHypergraph(rng, nv, nv*3)
		clusterOf := make([]int, nv)
		for v := range clusterOf {
			clusterOf[v] = rng.Intn(4)
		}
		for _, s := range h.clusterStatsFor(clusterOf) {
			r := s.rentExponent()
			if math.IsNaN(r) {
				continue
			}
			// External edges never exceed total pins, so R_c <= 1; and a
			// cluster has at least one pin per external edge, bounding below.
			if r > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCliqueExpandDegreeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(20)
		h := randomHypergraph(rng, nv, nv*2)
		g := h.CliqueExpand()
		// Sum of weighted degrees equals twice the total weight.
		var sum float64
		for v := 0; v < g.NumVertices(); v++ {
			sum += g.WeightedDegree(v)
		}
		return math.Abs(sum-2*g.TotalWeight()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// dedupe sorts and uniques a copy of vs — the semantics AddEdge applies to
// its vertex list, reimplemented here so the reference stays self-contained.
func dedupe(vs []int) []int {
	s := make([]int, len(vs))
	copy(s, vs)
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// sameEdges reports whether two hypergraphs store the identical edge list
// (same order, same vertex sets), comparing through the public API.
func sameEdges(a, b *Hypergraph) bool {
	if a.NumEdges() != b.NumEdges() {
		return false
	}
	for e := 0; e < a.NumEdges(); e++ {
		if !reflect.DeepEqual(a.Edge(e), b.Edge(e)) {
			return false
		}
	}
	return true
}

// contractReference is the pre-optimization Contract (string-keyed parallel
// edge merging), kept as an executable spec for the hashed implementation.
func contractReference(h *Hypergraph, clusterOf []int) *Contraction {
	dense := make(map[int]int)
	vmap := make([]int, len(clusterOf))
	for v, c := range clusterOf {
		id, ok := dense[c]
		if !ok {
			id = len(dense)
			dense[c] = id
		}
		vmap[v] = id
	}
	coarse := NewWithCap(len(dense), 0, 0)
	for v, cv := range vmap {
		coarse.vertexWeight[cv] += h.vertexWeight[v]
	}
	byKey := make(map[string]int)
	emap := make([]int, h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		verts := h.Edge(e)
		mapped := make([]int, 0, len(verts))
		for _, v := range verts {
			mapped = append(mapped, vmap[v])
		}
		mapped = dedupe(mapped)
		if len(mapped) < 2 {
			emap[e] = -1
			continue
		}
		var key []byte
		for _, v := range mapped {
			key = fmt.Appendf(key, "%d,", v)
		}
		if id, ok := byKey[string(key)]; ok {
			coarse.edgeWeight[id] += h.edgeWeight[e]
			emap[e] = id
			continue
		}
		id := coarse.AddEdge(mapped, h.edgeWeight[e])
		byKey[string(key)] = id
		emap[e] = id
	}
	return &Contraction{Coarse: coarse, VertexMap: vmap, EdgeMap: emap}
}

// TestContractMatchesReference checks the integer-hash Contract against the
// string-key reference on random graphs: identical coarse edges (order
// included), weights, and vertex/edge maps, for dense labels (the stamp-array
// densify path) and for sparse, partly negative ones (the map path).
func TestContractMatchesReference(t *testing.T) {
	f := func(seed int64, sparse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 5 + rng.Intn(60)
		h := randomHypergraph(rng, nv, nv*3)
		clusterOf := make([]int, nv)
		k := 1 + rng.Intn(8)
		for v := range clusterOf {
			clusterOf[v] = rng.Intn(k)
			if sparse {
				clusterOf[v] = clusterOf[v]*1000 - 3
			}
		}
		got, err := h.Contract(clusterOf)
		if err != nil {
			return false
		}
		want := contractReference(h, clusterOf)
		if !reflect.DeepEqual(got.VertexMap, want.VertexMap) ||
			!reflect.DeepEqual(got.EdgeMap, want.EdgeMap) ||
			!sameEdges(got.Coarse, want.Coarse) ||
			!reflect.DeepEqual(got.Coarse.edgeWeight, want.Coarse.edgeWeight) ||
			!reflect.DeepEqual(got.Coarse.vertexWeight, want.Coarse.vertexWeight) {
			return false
		}
		return got.Coarse.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 140}); err != nil {
		t.Fatal(err)
	}
}
