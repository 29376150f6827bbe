package place

import (
	"testing"

	"ppaclust/internal/designs"
)

func benchDesign(b *testing.B, name string) *designs.Benchmark {
	b.Helper()
	spec, ok := designs.Named(name)
	if !ok {
		b.Fatal("unknown design")
	}
	return designs.Generate(spec)
}

// BenchmarkGlobalPlace measures from-scratch global placement of ariane.
func BenchmarkGlobalPlace(b *testing.B) {
	bench := benchDesign(b, "ariane")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := bench.Design.Clone()
		Global(d, Options{Seed: 1})
	}
}

// BenchmarkIncrementalPlace measures seeded incremental placement.
func BenchmarkIncrementalPlace(b *testing.B) {
	bench := benchDesign(b, "ariane")
	d0 := bench.Design.Clone()
	Global(d0, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := d0.Clone()
		Global(d, Options{Seed: 1, Incremental: true})
	}
}

// BenchmarkLegalize measures Tetris legalization.
func BenchmarkLegalize(b *testing.B) {
	bench := benchDesign(b, "ariane")
	d0 := bench.Design.Clone()
	Global(d0, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := d0.Clone()
		Legalize(d)
	}
}

// BenchmarkDetailed measures swap-based detailed placement.
func BenchmarkDetailed(b *testing.B) {
	bench := benchDesign(b, "jpeg")
	d0 := bench.Design.Clone()
	Global(d0, Options{Seed: 1, Legalize: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := d0.Clone()
		Detailed(d, DetailedOptions{Seed: 1})
	}
}

// BenchmarkDetailedScale100k is BenchmarkDetailed at the size and shape of
// the repo benchmark's scale workloads: 100k cells, 20% of them on one clock
// net, where per-visit cost that grows with net fan-out dominates everything.
func BenchmarkDetailedScale100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-cell placement set-up")
	}
	d0 := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	Global(d0, Options{Seed: 1, Legalize: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := d0.Clone()
		b.StartTimer()
		Detailed(d, DetailedOptions{Seed: 1})
	}
}
