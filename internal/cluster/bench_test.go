package cluster

import "testing"

// BenchmarkMultilevelFC measures FC coarsening on a 6000-vertex block graph,
// at one fixed seed so that every iteration clusters the same problem.
func BenchmarkMultilevelFC(b *testing.B) {
	h := blocks(100, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultilevelFC(h, Options{TargetClusters: 100, Seed: 1})
	}
}
