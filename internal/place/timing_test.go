package place

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// drivenSpec is sized so that a timing checkpoint fires: the round overflow
// must fall through checkpointOverflows before the loop stops, and
// TestTimingDrivenWorkersEquivalent fails if no checkpoint reweighted a net.
func drivenSpec(seed int64) designs.Spec {
	return designs.ScaleSpec(6000, seed)
}

func drivenOptions(b *designs.Benchmark) Options {
	return Options{
		Seed:         1,
		TimingDriven: true,
		TimingCons:   b.Cons,
	}
}

// TestTimingDrivenWorkersEquivalent extends the placer's bit-identity
// contract to the feedback path: with timing reweighting enabled, every
// worker count must produce bit-identical positions and results, and the
// feedback must actually have fired.
func TestTimingDrivenWorkersEquivalent(t *testing.T) {
	b := designs.Generate(drivenSpec(91))
	ds := b.Design.Clone()
	dp := b.Design.Clone()
	opt := drivenOptions(b)
	os := opt
	os.Workers = 1
	op := opt
	op.Workers = 8
	rs := Global(ds, os)
	rp := Global(dp, op)
	if rs.TimingReweights == 0 {
		t.Fatal("no timing checkpoint fired; the test design is too easy")
	}
	if math.Float64bits(rs.HPWL) != math.Float64bits(rp.HPWL) ||
		rs.Iterations != rp.Iterations ||
		rs.TimingReweights != rp.TimingReweights ||
		math.Float64bits(rs.Overflow) != math.Float64bits(rp.Overflow) {
		t.Fatalf("results differ: seq %+v par %+v", rs, rp)
	}
	for i := range ds.Insts {
		a, b := ds.Insts[i], dp.Insts[i]
		if math.Float64bits(a.X) != math.Float64bits(b.X) ||
			math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("instance %s placed at (%v,%v) seq vs (%v,%v) par",
				a.Name, a.X, a.Y, b.X, b.Y)
		}
	}
}

// TestTimingDrivenDeterministic asserts that two identical timing-driven
// runs fire the same checkpoints and produce identical placements — the
// checkpoint schedule is a pure function of the overflow sequence and the
// round count.
func TestTimingDrivenDeterministic(t *testing.T) {
	b := designs.Generate(drivenSpec(92))
	d1 := b.Design.Clone()
	d2 := b.Design.Clone()
	opt := drivenOptions(b)
	r1 := Global(d1, opt)
	r2 := Global(d2, opt)
	if math.Float64bits(r1.HPWL) != math.Float64bits(r2.HPWL) ||
		r1.Iterations != r2.Iterations ||
		r1.TimingReweights != r2.TimingReweights ||
		math.Float64bits(r1.Overflow) != math.Float64bits(r2.Overflow) {
		t.Fatalf("repeat run differs: %+v vs %+v", r1, r2)
	}
	for i := range d1.Insts {
		a, b := d1.Insts[i], d2.Insts[i]
		if math.Float64bits(a.X) != math.Float64bits(b.X) ||
			math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("instance %s moved between identical runs", a.Name)
		}
	}
}

// TestTimingDrivenImprovesTNS is the quality gate for the feedback loop:
// on the driven design, timing-driven placement must improve TNS without
// costing more than a bounded HPWL ratio.
func TestTimingDrivenImprovesTNS(t *testing.T) {
	b := designs.Generate(drivenSpec(93))
	base := b.Design.Clone()
	td := b.Design.Clone()
	rb := Global(base, Options{Seed: 1})
	rt := Global(td, drivenOptions(b))
	tnsOf := func(d *netlist.Design) float64 {
		a := sta.New(d, b.Cons)
		return a.Timing().TNS
	}
	baseTNS, tdTNS := tnsOf(base), tnsOf(td)
	if tdTNS < baseTNS {
		t.Fatalf("timing-driven TNS %v worse than baseline %v", tdTNS, baseTNS)
	}
	if rt.HPWL > 1.05*rb.HPWL {
		t.Fatalf("timing-driven HPWL %v exceeds 1.05x baseline %v", rt.HPWL, rb.HPWL)
	}
}

// TestTimingDrivenIncrementalFiresEveryCheckpoint runs the feedback in an
// incremental run on its default budget, seeded with every cell on the core
// centre: the stack's overflow stays above the lower thresholds through the
// run, so the checkpoints must fire at their deadlines, and the feedback
// must still improve TNS over the same run without it.
func TestTimingDrivenIncrementalFiresEveryCheckpoint(t *testing.T) {
	b := designs.Generate(drivenSpec(94))
	cx, cy := (b.Design.Core.X0+b.Design.Core.X1)/2, (b.Design.Core.Y0+b.Design.Core.Y1)/2
	for _, inst := range b.Design.Insts {
		if !inst.Fixed {
			inst.X, inst.Y, inst.Placed = cx, cy, true
		}
	}
	base := b.Design.Clone()
	td := b.Design.Clone()
	Global(base, Options{Seed: 1, Incremental: true})
	opt := drivenOptions(b)
	opt.Incremental = true
	rt := Global(td, opt)
	if rt.TimingReweights != len(checkpointOverflows) {
		t.Fatalf("%d of %d checkpoints fired in %d rounds (overflow %v)",
			rt.TimingReweights, len(checkpointOverflows), rt.Iterations, rt.Overflow)
	}
	baseTNS, tdTNS := sta.New(base, b.Cons).Timing().TNS, sta.New(td, b.Cons).Timing().TNS
	if tdTNS < baseTNS {
		t.Fatalf("timing-driven TNS %v worse than baseline %v", tdTNS, baseTNS)
	}
}

// TestOverflowMeasuredOnCommittedPositions is the regression for
// Result.Overflow being sampled mid-loop: the reported overflow must describe
// the positions Global commits to the design, not the last spreading round.
func TestOverflowMeasuredOnCommittedPositions(t *testing.T) {
	d := designs.Generate(designs.TinySpec(94)).Design
	res := Global(d, Options{Seed: 2})
	// Recompute the bin overflow from the design's final coordinates with an
	// independent placer instance and compare bit-for-bit.
	p := &placer{d: d, opt: Options{Seed: 2}.withDefaults(), core: d.Core, workers: 1}
	p.collect()
	want := p.finalOverflow()
	if math.Float64bits(res.Overflow) != math.Float64bits(want) {
		t.Fatalf("Result.Overflow %v != committed-position overflow %v", res.Overflow, want)
	}
}
