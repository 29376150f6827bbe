package cts

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/place"
)

// BenchmarkSynthesize measures clock-tree synthesis on a placed ariane.
func BenchmarkSynthesize(b *testing.B) {
	spec, _ := designs.Named("ariane")
	bench := designs.Generate(spec)
	place.Global(bench.Design, place.Options{Seed: 1})
	place.Legalize(bench.Design)
	clk := clockNet(bench.Design)
	opt := Options{BufMaster: bench.Design.Lib.Master("CLKBUF_X2")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthesize(bench.Design, clk, opt)
	}
}

// BenchmarkSynthesizeScale100k measures clock-tree synthesis on the placed,
// legalized ScaleSpec(100000, 1) design, whose clock net reaches 20% of the
// cells.
func BenchmarkSynthesizeScale100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-cell placement set-up")
	}
	d := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	place.Global(d, place.Options{Seed: 1})
	place.Legalize(d)
	clk := clockNet(d)
	opt := Options{BufMaster: d.Lib.Master("CLKBUF_X2")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthesize(d, clk, opt)
	}
}
