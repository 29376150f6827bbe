// Incremental-vs-full equivalence on generated designs, in the style of
// determinism_test.go (package sta_test: internal/designs imports sta).
package sta_test

import (
	"math"
	"math/rand"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// scatter places every movable core cell at a pseudo-random spot so the
// design has non-trivial wire geometry.
func scatter(d *netlist.Design, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		inst.X = d.Core.X0 + rng.Float64()*(d.Core.W()-inst.Master.Width)
		inst.Y = d.Core.Y0 + rng.Float64()*(d.Core.H()-inst.Master.Height)
		inst.Placed = true
	}
}

// perturb moves ~frac of the movable cells and invalidates them on an; it
// returns the moved instance IDs.
func perturb(d *netlist.Design, an *sta.Analyzer, frac float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var moved []int
	for _, inst := range d.Insts {
		if inst.Fixed || rng.Float64() >= frac {
			continue
		}
		inst.X = d.Core.X0 + rng.Float64()*(d.Core.W()-inst.Master.Width)
		inst.Y = d.Core.Y0 + rng.Float64()*(d.Core.H()-inst.Master.Height)
		if an != nil {
			an.InvalidateInst(inst.ID)
		}
		moved = append(moved, inst.ID)
	}
	return moved
}

// requireIdentical asserts slacks, the timing summary and activities of two
// analyzers match bit-for-bit.
func requireIdentical(t *testing.T, ctx string, a, b *sta.Analyzer) {
	t.Helper()
	as, bs := a.NetSlackInto(nil), b.NetSlackInto(nil)
	if len(as) != len(bs) {
		t.Fatalf("%s: net slack length mismatch", ctx)
	}
	for i := range as {
		if math.Float64bits(as[i]) != math.Float64bits(bs[i]) {
			t.Fatalf("%s: net %d slack %v vs %v", ctx, i, as[i], bs[i])
		}
	}
	at, bt := a.Timing(), b.Timing()
	if math.Float64bits(at.WNS) != math.Float64bits(bt.WNS) ||
		math.Float64bits(at.TNS) != math.Float64bits(bt.TNS) ||
		at.Endpoints != bt.Endpoints || at.Failing != bt.Failing {
		t.Fatalf("%s: summary differs: %+v vs %+v", ctx, at, bt)
	}
	aa, ba := a.NetActivity(), b.NetActivity()
	for i := range aa {
		if math.Float64bits(aa[i]) != math.Float64bits(ba[i]) {
			t.Fatalf("%s: net %d activity %v vs %v", ctx, i, aa[i], ba[i])
		}
	}
}

// TestIncrementalSTAEquivalent moves a share of the cells, updates via the
// dirty-cone path, and requires bit-identical results to a fresh full
// analysis — at Workers=1 and Workers=8 on both sides. The two hand-built
// rows are the shapes that used to take the full-refresh arm of Update: a
// clock behind a buffer and a combinational loop.
func TestIncrementalSTAEquivalent(t *testing.T) {
	generated := func(name string) func() (*netlist.Design, sta.Constraints) {
		return func() (*netlist.Design, sta.Constraints) {
			spec, ok := designs.Named(name)
			if !ok {
				t.Fatalf("unknown design %s", name)
			}
			spec.TargetInsts = 800
			b := designs.Generate(spec)
			return b.Design, b.Cons
		}
	}
	rows := []struct {
		name  string
		build func() (*netlist.Design, sta.Constraints)
		frac  float64 // share of cells moved per round
	}{
		{"aes", generated("aes"), 0.05},
		{"jpeg", generated("jpeg"), 0.05},
		{"bufferedClock", bufferedClock, 1},
		{"ring", ring, 1},
	}
	for _, row := range rows {
		for _, workers := range []int{1, 8} {
			t.Run(row.name, func(t *testing.T) {
				d, cons := row.build()
				scatter(d, 42)

				an := sta.New(d, cons)
				an.Workers = workers
				an.Run()

				for round := 0; round < 3; round++ {
					perturb(d, an, row.frac, int64(100+round))
					an.Update()
					if an.LastUpdateNodes() <= 0 {
						t.Fatal("dirty-cone path did not engage")
					}
					for _, rw := range []int{1, 8} {
						ref := sta.New(d, cons)
						ref.Workers = rw
						requireIdentical(t, "incremental vs full", an, ref)
					}
				}
			})
		}
	}
}

// TestIncrementalModeSwitchEquivalent drives the zero-wire -> placed
// parasitics transition the flow uses (SetZeroWire + Update must reduce to
// exactly the full propagation) and the reverse.
func TestIncrementalModeSwitchEquivalent(t *testing.T) {
	spec, _ := designs.Named("aes")
	spec.TargetInsts = 800
	b := designs.Generate(spec)
	scatter(b.Design, 7)

	zc := b.Cons
	zc.ZeroWire = true
	an := sta.New(b.Design, zc)
	an.Workers = 8
	an.Run()
	refZero := sta.New(b.Design, zc)
	requireIdentical(t, "zero-wire", an, refZero)

	an.SetZeroWire(false)
	an.Update()
	if an.LastUpdateNodes() != -1 {
		t.Fatal("full invalidation should reduce to the full propagation")
	}
	ref := sta.New(b.Design, b.Cons)
	requireIdentical(t, "placed after switch", an, ref)

	// Moving cells after the switch keeps the reused analyzer exact.
	perturb(b.Design, an, 0.05, 9)
	an.Update()
	if an.LastUpdateNodes() < 0 {
		t.Fatal("dirty-cone path did not engage after mode switch")
	}
	ref2 := sta.New(b.Design, b.Cons)
	requireIdentical(t, "perturbed after switch", an, ref2)

	// And back to zero-wire.
	an.SetZeroWire(true)
	an.Update()
	refZero2 := sta.New(b.Design, zc)
	requireIdentical(t, "back to zero-wire", an, refZero2)
}

// TestIncrementalLegacyUpdateEquivalent checks that Update with no recorded
// invalidations still refreshes everything (legacy callers move cells and
// call Update directly).
func TestIncrementalLegacyUpdateEquivalent(t *testing.T) {
	spec, _ := designs.Named("jpeg")
	spec.TargetInsts = 800
	b := designs.Generate(spec)
	scatter(b.Design, 3)

	an := sta.New(b.Design, b.Cons)
	an.Run()
	perturb(b.Design, nil, 0.3, 11)
	an.Update() // no Invalidate calls recorded
	ref := sta.New(b.Design, b.Cons)
	requireIdentical(t, "legacy update", an, ref)
}
