package sta_test

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/sta"
)

// scale100k generates the ScaleSpec(100000, 1) design and its zero-wire
// constraints, the analyzer the flow extracts its critical paths from
// (Algorithm 1 lines 4-5). Generating is set-up and stays outside the timer.
func scale100k(b *testing.B) (*designs.Benchmark, sta.Constraints) {
	bm := designs.Generate(designs.ScaleSpec(100000, 1))
	cons := bm.Cons
	cons.ZeroWire = true
	b.ResetTimer()
	return bm, cons
}

// BenchmarkSTABuildAndRunScale100k measures timing-graph construction plus
// full arrival/required propagation at 100k cells.
func BenchmarkSTABuildAndRunScale100k(b *testing.B) {
	bm, cons := scale100k(b)
	for i := 0; i < b.N; i++ {
		sta.New(bm.Design, cons).Run()
	}
}

// BenchmarkTopPathsScale100k measures the worst path per endpoint at 100k
// cells on a propagated analyzer, as many paths as the flow asks for.
func BenchmarkTopPathsScale100k(b *testing.B) {
	bm, cons := scale100k(b)
	a := sta.New(bm.Design, cons)
	a.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TopPaths(100000)
	}
}
