package route

import (
	"math"
	"math/rand"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

// scatterTiny generates the tiny benchmark and scatters its movable cells
// deterministically across the core. The placer cannot be used here — it
// imports this package for its routability-driven checkpoints, so an
// in-package import would be a cycle — and routing equivalence only needs a
// placed design, not a good placement.
func scatterTiny(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	b := designs.Generate(designs.TinySpec(seed))
	d := b.Design
	rng := rand.New(rand.NewSource(seed))
	core := d.Core
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		inst.X = core.X0 + rng.Float64()*(core.W()-inst.Master.Width)
		inst.Y = core.Y0 + rng.Float64()*(core.H()-inst.Master.Height)
		inst.Placed = true
	}
	return d
}

// TestGlobalRouteWorkersEquivalent checks the router's bit-identity
// contract: every worker count must produce exactly the same routed
// wirelength, overflow, max congestion, via count, and per-edge usage.
// The parallel phases only ever price candidates against frozen grid
// snapshots and merge integer partial grids, so nothing may drift.
func TestGlobalRouteWorkersEquivalent(t *testing.T) {
	ref := GlobalRoute(scatterTiny(t, 41), Options{Workers: 1})
	for _, w := range []int{2, 8} {
		got := GlobalRoute(scatterTiny(t, 41), Options{Workers: w})
		if math.Float64bits(got.WirelengthUM) != math.Float64bits(ref.WirelengthUM) {
			t.Fatalf("W=%d wirelength %v != %v", w, got.WirelengthUM, ref.WirelengthUM)
		}
		if got.Overflow != ref.Overflow {
			t.Fatalf("W=%d overflow %d != %d", w, got.Overflow, ref.Overflow)
		}
		if math.Float64bits(got.MaxCongestion) != math.Float64bits(ref.MaxCongestion) {
			t.Fatalf("W=%d max congestion %v != %v", w, got.MaxCongestion, ref.MaxCongestion)
		}
		if got.Vias != ref.Vias {
			t.Fatalf("W=%d vias %d != %d", w, got.Vias, ref.Vias)
		}
		for i := range ref.Grid.hUse {
			if got.Grid.hUse[i] != ref.Grid.hUse[i] {
				t.Fatalf("W=%d hUse[%d] %d != %d", w, i, got.Grid.hUse[i], ref.Grid.hUse[i])
			}
		}
		for i := range ref.Grid.vUse {
			if got.Grid.vUse[i] != ref.Grid.vUse[i] {
				t.Fatalf("W=%d vUse[%d] %d != %d", w, i, got.Grid.vUse[i], ref.Grid.vUse[i])
			}
		}
	}
}

// TestRouteHotLoopAllocFree gates the per-net scratch reuse: once a
// worker's routeScratch exists, decomposing and pattern-routing a net
// (the MST path, the overlay bookkeeping, and the partial-grid apply)
// must not allocate.
func TestRouteHotLoopAllocFree(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 400, Y1: 400}
	g := newGrid(core, 10, 4, 4)
	sc := newRouteScratch(g)
	cells := [][2]int{{1, 2}, {17, 3}, {9, 30}, {25, 25}, {33, 8}}
	var segs [][4]int
	// Warm the scratch so capacity growth happens outside the measured runs.
	segs = sc.dec.decompose(cells, 64, segs[:0])
	gen := int32(0)
	avg := testing.AllocsPerRun(100, func() {
		segs = sc.dec.decompose(cells, 64, segs[:0])
		ctx := &sc.ctx
		gen++
		ctx.gen = gen
		for _, sp := range segs {
			s := ctx.route(sp[0], sp[1], sp[2], sp[3])
			ctx.addOwn(s)
			sc.applyPart(s)
		}
		for i := range sc.partH {
			sc.partH[i] = 0
		}
		for i := range sc.partV {
			sc.partV[i] = 0
		}
	})
	if avg != 0 {
		t.Fatalf("route hot loop allocates %.1f times per net, want 0", avg)
	}
}

// TestDecomposeHotLoopAllocFree gates the chain path for huge nets, which
// must reuse the radix-sort buffers across nets.
func TestDecomposeHotLoopAllocFree(t *testing.T) {
	var sc decScratch
	var cells [][2]int
	for i := 0; i < 300; i++ {
		cells = append(cells, [2]int{i % 20, i / 20})
	}
	var segs [][4]int
	segs = sc.decompose(cells, 64, segs[:0]) // warm
	avg := testing.AllocsPerRun(50, func() {
		segs = sc.decompose(cells, 64, segs[:0])
	})
	if avg != 0 {
		t.Fatalf("chain decompose allocates %.1f times per net, want 0", avg)
	}
}
