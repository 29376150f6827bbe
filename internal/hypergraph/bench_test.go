package hypergraph

import (
	"math/rand"
	"testing"
)

// BenchmarkContract measures hypergraph contraction of a 20k-vertex graph.
func BenchmarkContract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randomHypergraph(rng, 20000, 40000)
	clusterOf := make([]int, h.NumVertices())
	for v := range clusterOf {
		clusterOf[v] = rng.Intn(400)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Contract(clusterOf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCliqueExpand measures clique expansion.
func BenchmarkCliqueExpand(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	h := randomHypergraph(rng, 10000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CliqueExpand()
	}
}
