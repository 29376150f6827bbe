package place

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

// TestOptionsWithDefaults pins the resolution of every tunable option under
// the repo-wide convention: zero selects the default, negative explicitly
// disables (resolving to the knob's no-op value), positive passes through.
// Iterations and CGIterations have no disabled state (<=0 selects the
// default), and TargetDensity's default derives from the design utilization.
func TestOptionsWithDefaults(t *testing.T) {
	d := designs.Generate(designs.TinySpec(7)).Design
	wantDensity := d.Utilization() * 1.15
	if wantDensity < 0.75 {
		wantDensity = 0.75
	}
	if wantDensity > 1 {
		wantDensity = 1
	}

	type tc struct {
		name string
		in   Options
		get  func(Options) float64
		want float64
	}
	cases := []tc{
		{"Iterations default", Options{}, func(o Options) float64 { return float64(o.Iterations) }, 24},
		{"Iterations default incremental", Options{Incremental: true}, func(o Options) float64 { return float64(o.Iterations) }, 12},
		{"Iterations negative selects default", Options{Iterations: -1}, func(o Options) float64 { return float64(o.Iterations) }, 24},
		{"Iterations passthrough", Options{Iterations: 7}, func(o Options) float64 { return float64(o.Iterations) }, 7},
		{"CGIterations default", Options{}, func(o Options) float64 { return float64(o.CGIterations) }, 50},
		{"CGIterations negative selects default", Options{CGIterations: -3}, func(o Options) float64 { return float64(o.CGIterations) }, 50},
		{"CGIterations passthrough", Options{CGIterations: 9}, func(o Options) float64 { return float64(o.CGIterations) }, 9},
		{"TargetDensity default from utilization", Options{}, func(o Options) float64 { return o.TargetDensity }, wantDensity},
		{"TargetDensity disabled fills bins", Options{TargetDensity: -1}, func(o Options) float64 { return o.TargetDensity }, 1},
		{"TargetDensity passthrough", Options{TargetDensity: 0.9}, func(o Options) float64 { return o.TargetDensity }, 0.9},
		{"AnchorWeight default", Options{}, func(o Options) float64 { return o.AnchorWeight }, 0.03},
		{"AnchorWeight disabled", Options{AnchorWeight: -1}, func(o Options) float64 { return o.AnchorWeight }, 0},
		{"AnchorWeight passthrough", Options{AnchorWeight: 0.5}, func(o Options) float64 { return o.AnchorWeight }, 0.5},
		{"SpreadWeight default", Options{}, func(o Options) float64 { return o.SpreadWeight }, 0.18},
		{"SpreadWeight disabled", Options{SpreadWeight: -1}, func(o Options) float64 { return o.SpreadWeight }, 0},
		{"SpreadWeight passthrough", Options{SpreadWeight: 0.4}, func(o Options) float64 { return o.SpreadWeight }, 0.4},
		{"OverflowStop default", Options{}, func(o Options) float64 { return o.OverflowStop }, 0.12},
		{"OverflowStop disabled never fires", Options{OverflowStop: -1}, func(o Options) float64 { return o.OverflowStop }, 0},
		{"OverflowStop passthrough", Options{OverflowStop: 0.2}, func(o Options) float64 { return o.OverflowStop }, 0.2},
	}
	for _, c := range cases {
		got := c.get(c.in.withDefaults(d))
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDisabledSpreadingIsExpressible is the regression for the old <=0
// coercion: SpreadWeight=-1 must genuinely turn spreading off, which leaves
// the quadratic optimum untouched (lower HPWL, higher overflow than the
// spread run).
func TestDisabledSpreadingIsExpressible(t *testing.T) {
	d1 := designs.Generate(designs.TinySpec(11)).Design
	d2 := designs.Generate(designs.TinySpec(11)).Design
	on := Global(d1, Options{Seed: 1})
	off := Global(d2, Options{Seed: 1, SpreadWeight: -1})
	if off.HPWL >= on.HPWL {
		t.Fatalf("disabled spreading HPWL %v not below spread HPWL %v", off.HPWL, on.HPWL)
	}
	if off.Overflow <= on.Overflow {
		t.Fatalf("disabled spreading overflow %v not above spread overflow %v", off.Overflow, on.Overflow)
	}
}

// TestUseCoarseInitPolicy pins the solver policy without running a
// placement: the warm start engages for from-scratch, region-free runs with
// at least coarseInitMinCells movable cells and nowhere else.
func TestUseCoarseInitPolicy(t *testing.T) {
	for _, c := range []struct {
		name    string
		movable int
		opt     Options
		want    bool
	}{
		{"below threshold", 199999, Options{}, false},
		{"at threshold", 200000, Options{}, true},
		{"incremental", 200000, Options{Incremental: true}, false},
		{"regions", 200000, Options{Regions: map[int]netlist.Rect{}}, false},
		{"forced on", 10, Options{coarseInit: 1}, true},
		{"forced off", 200000, Options{coarseInit: -1}, false},
	} {
		p := &placer{movable: make([]int, c.movable), opt: c.opt}
		if got := p.useCoarseInit(); got != c.want {
			t.Errorf("%s: useCoarseInit() = %v, want %v", c.name, got, c.want)
		}
	}
}
