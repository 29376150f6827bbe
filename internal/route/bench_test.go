// External test package: the placer now consumes this package for its
// routability-driven checkpoints, so an in-package test importing place
// would be an import cycle.
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
