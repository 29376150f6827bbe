// Update-vs-fresh-analyzer equivalence on generated designs, in the style of
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

// perturb moves ~frac of the movable cells.
func perturb(d *netlist.Design, frac float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, inst := range d.Insts {
		if inst.Fixed || rng.Float64() >= frac {
			continue
		}
		inst.X = d.Core.X0 + rng.Float64()*(d.Core.W()-inst.Master.Width)
		inst.Y = d.Core.Y0 + rng.Float64()*(d.Core.H()-inst.Master.Height)
	}
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

// TestIncrementalSTAEquivalent moves a share of the cells, calls Update, and
// requires bit-identical results to a fresh analysis — at Workers=1 and
// Workers=8 on both sides, three rounds on one reused analyzer. The two
// hand-built rows are the shapes the level schedule treats specially: a
// clock behind a buffer and a combinational loop. (The name dates from when
// Update had a dirty-cone arm; it is kept because the test floor lists these
// rows by name.)
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
					perturb(d, row.frac, int64(100+round))
					an.Update()
					for _, rw := range []int{1, 8} {
						ref := sta.New(d, cons)
						ref.Workers = rw
						requireIdentical(t, "update vs fresh", an, ref)
					}
				}
			})
		}
	}
}

// TestUpdateModeSwitchEquivalent drives the zero-wire -> placed parasitics
// transition the flow uses (SetZeroWire + Update must land on the bits of an
// analyzer built fresh in the new mode) and the reverse.
func TestUpdateModeSwitchEquivalent(t *testing.T) {
	spec, _ := designs.Named("aes")
	spec.TargetInsts = 800
	b := designs.Generate(spec)
	scatter(b.Design, 7)

	zc := b.Cons
	zc.ZeroWire = true
	an := sta.New(b.Design, zc)
	an.Run()
	refZero := sta.New(b.Design, zc)
	requireIdentical(t, "zero-wire", an, refZero)

	an.SetZeroWire(false)
	an.Update()
	ref := sta.New(b.Design, b.Cons)
	requireIdentical(t, "placed after switch", an, ref)

	// Moving cells after the switch keeps the reused analyzer exact.
	perturb(b.Design, 0.05, 9)
	an.Update()
	ref2 := sta.New(b.Design, b.Cons)
	requireIdentical(t, "perturbed after switch", an, ref2)

	// And back to zero-wire.
	an.SetZeroWire(true)
	an.Update()
	refZero2 := sta.New(b.Design, zc)
	requireIdentical(t, "back to zero-wire", an, refZero2)
}

// TestUpdateAfterMoveEquivalent checks the caller's whole protocol: move
// cells, call Update, and every query matches an analyzer built fresh on the
// moved design.
func TestUpdateAfterMoveEquivalent(t *testing.T) {
	spec, _ := designs.Named("jpeg")
	spec.TargetInsts = 800
	b := designs.Generate(spec)
	scatter(b.Design, 3)

	an := sta.New(b.Design, b.Cons)
	an.Run()
	perturb(b.Design, 0.3, 11)
	an.Update()
	ref := sta.New(b.Design, b.Cons)
	requireIdentical(t, "update after move", an, ref)
}
