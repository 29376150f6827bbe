package community

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppaclust/internal/hypergraph"
)

// cliques builds k disjoint cliques of size s with sparse bridges between
// consecutive cliques.
func cliques(k, s int, bridgeW float64) *hypergraph.Graph {
	g := hypergraph.NewGraph(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.AddEdge(base+i, base+j, 1)
			}
		}
		if c > 0 {
			g.AddEdge(base-1, base, bridgeW)
		}
	}
	g.Finish()
	return g
}

func sameGroup(assign []int, a, b int) bool { return assign[a] == assign[b] }

func TestLouvainFindsCliques(t *testing.T) {
	g := cliques(4, 6, 0.5)
	assign := Louvain(g, Options{Seed: 1})
	if n := NumCommunities(assign); n != 4 {
		t.Fatalf("communities=%d want 4", n)
	}
	for c := 0; c < 4; c++ {
		base := c * 6
		for i := 1; i < 6; i++ {
			if !sameGroup(assign, base, base+i) {
				t.Fatalf("clique %d split", c)
			}
		}
	}
	if !sameGroup(assign, 0, 1) || sameGroup(assign, 0, 6) {
		t.Fatal("cliques merged across bridge")
	}
}

func TestLeidenFindsCliques(t *testing.T) {
	g := cliques(5, 5, 0.25)
	assign := Leiden(g, Options{Seed: 7})
	if n := NumCommunities(assign); n != 5 {
		t.Fatalf("communities=%d want 5", n)
	}
}

func TestModularityHandValue(t *testing.T) {
	// Two disjoint edges: perfect 2-community partition.
	g := hypergraph.NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.Finish()
	q := Modularity(g, []int{0, 0, 1, 1}, 1)
	// Q = sum over c of [in/2m - (tot/2m)^2] = 2*(1/2 - (2/4)^2) wait:
	// m=2, per community: in=2 (w counted both ends), tot=2.
	// Q_c = 2/4 - (2/4)^2 = 0.5 - 0.25 = 0.25; total 0.5.
	if math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("Q=%v want 0.5", q)
	}
	// Everything in one community: Q = 1 - 1 = ... in=4? m=2; in(total)=4/4=1; tot=4 -> (4/4)^2=1 -> 0.
	q1 := Modularity(g, []int{0, 0, 0, 0}, 1)
	if math.Abs(q1-0) > 1e-12 {
		t.Fatalf("Q(single)=%v want 0", q1)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := hypergraph.NewGraph(3)
	g.Finish()
	if Modularity(g, []int{0, 1, 2}, 1) != 0 {
		t.Fatal("empty graph modularity should be 0")
	}
}

// TestModularitySumsInCommunityOrder: the per-community terms are added in
// ascending community ID, so every call returns the same bits. The graph has
// self-loops, weights over six decades and 150 sparse community IDs, where a
// sum in map order differs from call to call.
func TestModularitySumsInCommunityOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, k, stride = 600, 150, 7
	g := hypergraph.NewGraph(n)
	for e := 0; e < 3*n; e++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()*math.Pow(10, float64(rng.Intn(6))))
	}
	g.Finish()
	assign := make([]int, n)
	for v := range assign {
		assign[v] = stride * rng.Intn(k)
	}

	m := g.TotalWeight()
	intra := make([]float64, stride*k)
	tot := make([]float64, stride*k)
	used := make([]bool, stride*k)
	for v := 0; v < n; v++ {
		c := assign[v]
		used[c] = true
		tot[c] += g.WeightedDegree(v)
		intra[c] += 2 * g.SelfLoop(v)
		for _, h := range g.Adj(v) {
			if assign[h.To] == c {
				intra[c] += h.Weight
			}
		}
	}
	var want float64
	for c := range used {
		if used[c] {
			want += intra[c]/(2*m) - (tot[c]/(2*m))*(tot[c]/(2*m))
		}
	}
	for i := 0; i < 20; i++ {
		if got := Modularity(g, assign, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Q = %v (%#x), ID-order sum %v (%#x)", i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestLouvainImprovesModularity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := hypergraph.NewGraph(60)
	// Random graph with planted partition: 3 groups of 20.
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			same := i/20 == j/20
			p := 0.05
			if same {
				p = 0.4
			}
			if rng.Float64() < p {
				g.AddEdge(i, j, 1)
			}
		}
	}
	g.Finish()
	assign := Louvain(g, Options{Seed: 3})
	singletons := make([]int, 60)
	for i := range singletons {
		singletons[i] = i
	}
	if Modularity(g, assign, 1) <= Modularity(g, singletons, 1) {
		t.Fatal("Louvain should beat singleton partition")
	}
	if Modularity(g, assign, 1) < 0.2 {
		t.Fatalf("planted partition modularity too low: %v", Modularity(g, assign, 1))
	}
}

func TestLeidenAtLeastAsGoodAsLouvainOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := hypergraph.NewGraph(80)
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			same := i/16 == j/16
			p := 0.03
			if same {
				p = 0.35
			}
			if rng.Float64() < p {
				g.AddEdge(i, j, 1)
			}
		}
	}
	g.Finish()
	ql := Modularity(g, Louvain(g, Options{Seed: 5}), 1)
	qn := Modularity(g, Leiden(g, Options{Seed: 5}), 1)
	if qn < ql-0.05 {
		t.Fatalf("Leiden %v much worse than Louvain %v", qn, ql)
	}
}

func TestDeterminism(t *testing.T) {
	g := cliques(3, 7, 0.5)
	a := Louvain(g, Options{Seed: 11})
	b := Louvain(g, Options{Seed: 11})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Louvain not deterministic for fixed seed")
		}
	}
	c := Leiden(g, Options{Seed: 11})
	d := Leiden(g, Options{Seed: 11})
	for i := range c {
		if c[i] != d[i] {
			t.Fatal("Leiden not deterministic for fixed seed")
		}
	}
}

func TestPropertyModularityBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		g := hypergraph.NewGraph(n)
		for e := 0; e < n*2; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 0.5+rng.Float64())
		}
		g.Finish()
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(4)
		}
		q := Modularity(g, assign, 1)
		return q >= -1.0-1e-9 && q <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLouvainNeverWorseThanSingletons(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		g := hypergraph.NewGraph(n)
		for e := 0; e < n*3; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		g.Finish()
		if g.TotalWeight() == 0 {
			return true
		}
		assign := Louvain(g, Options{Seed: seed})
		singles := make([]int, n)
		for i := range singles {
			singles[i] = i
		}
		return Modularity(g, assign, 1) >= Modularity(g, singles, 1)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLeidenDenseLabels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(25)
		g := hypergraph.NewGraph(n)
		for e := 0; e < n*2; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		g.Finish()
		assign := Leiden(g, Options{Seed: seed})
		if len(assign) != n {
			return false
		}
		k := NumCommunities(assign)
		seen := make([]bool, k)
		for _, c := range assign {
			if c < 0 || c >= k {
				return false
			}
			seen[c] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
