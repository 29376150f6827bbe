package cluster

import (
	"testing"

	"ppaclust/internal/designs"
)

// BenchmarkMultilevelFC measures FC coarsening on a 6000-vertex block graph,
// at one fixed seed so that every iteration clusters the same problem.
func BenchmarkMultilevelFC(b *testing.B) {
	h := blocks(100, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultilevelFC(h, Options{TargetClusters: 100, Seed: 1})
	}
}

// BenchmarkMultilevelFCScale100k measures FC coarsening on the hypergraph of
// a generated 100k-cell design at one fixed seed. Generating the design is
// set-up and stays outside the timer.
func BenchmarkMultilevelFCScale100k(b *testing.B) {
	h := designs.Generate(designs.ScaleSpec(100000, 1)).Design.ToHypergraph().H
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultilevelFC(h, Options{Alpha: 1, Seed: 1})
	}
}
