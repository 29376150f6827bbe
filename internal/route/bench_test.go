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
