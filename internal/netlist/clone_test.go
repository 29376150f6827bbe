package netlist_test

import (
	"testing"

	"ppaclust/internal/designs"
)

// BenchmarkCloneScale100k measures Design.Clone on the ScaleSpec(100000, 1)
// design: flow.Run, RunDefault and Cluster each clone their input once.
// Generation stays outside the timer.
func BenchmarkCloneScale100k(b *testing.B) {
	d := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Clone()
	}
}
