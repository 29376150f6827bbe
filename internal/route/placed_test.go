// External tests: these exercise GlobalRoute through its exported API on
// designs the placer placed, as the flow calls it.
package route_test

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
	"ppaclust/internal/route"
)

func placedTiny(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	b := designs.Generate(designs.TinySpec(seed))
	place.Global(b.Design, place.Options{Seed: seed})
	return b.Design
}

func TestGlobalRouteOnPlacedDesign(t *testing.T) {
	d := placedTiny(t, 31)
	res := route.GlobalRoute(d, route.Options{})
	if res.WirelengthUM <= 0 {
		t.Fatal("no wirelength")
	}
	// Routed WL should be at least comparable to HPWL (usually larger).
	if res.WirelengthUM < 0.4*d.HPWL() {
		t.Fatalf("rWL %v suspiciously below HPWL %v", res.WirelengthUM, d.HPWL())
	}
	if res.MaxCongestion < 0 {
		t.Fatal("bad congestion")
	}
	if res.Grid == nil {
		t.Fatal("missing grid")
	}
}

// TestRipUpReducesOverflow pins the overflow of a capacity-starved route.
// Recorded on commit fde76ed, where the pass count was still an option: the
// initial route alone left 81 tracks of overflow, the rip-up pass brings
// it to 8.
func TestRipUpReducesOverflow(t *testing.T) {
	d := placedTiny(t, 32)
	r := route.GlobalRoute(d, route.Options{Capacity: 3})
	if r.Overflow != 8 {
		t.Fatalf("overflow %d, want 8 (81 before rip-up)", r.Overflow)
	}
}

func TestDeterministicRouting(t *testing.T) {
	d1 := placedTiny(t, 33)
	d2 := placedTiny(t, 33)
	r1 := route.GlobalRoute(d1, route.Options{})
	r2 := route.GlobalRoute(d2, route.Options{})
	if r1.WirelengthUM != r2.WirelengthUM || r1.Overflow != r2.Overflow {
		t.Fatal("routing not deterministic")
	}
}
