// External test package: the benchmark drives route through its exported
// API only, on a design the placer placed, as the flow does.
package route_test

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/place"
	"ppaclust/internal/route"
)

// BenchmarkGlobalRoute measures routing a placed ariane.
func BenchmarkGlobalRoute(b *testing.B) {
	spec, _ := designs.Named("ariane")
	bench := designs.Generate(spec)
	place.Global(bench.Design, place.Options{Seed: 1})
	place.Legalize(bench.Design)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.GlobalRoute(bench.Design, route.Options{})
	}
}

// BenchmarkGlobalRouteScale100k measures routing the repo benchmark's
// scale100k design (ScaleSpec(100000, 1)), placed and legalized outside the
// timer.
func BenchmarkGlobalRouteScale100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-cell placement set-up")
	}
	d := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	place.Global(d, place.Options{Seed: 1})
	place.Legalize(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.GlobalRoute(d, route.Options{})
	}
}
