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
