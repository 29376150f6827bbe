package place

import (
	"math"
	"testing"

	"ppaclust/internal/netlist"
)

// TestOptionsWithDefaults pins the resolution of the tunable options: a
// value <= 0 selects the default, a positive one passes through.
func TestOptionsWithDefaults(t *testing.T) {
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
		{"AnchorWeight default", Options{}, func(o Options) float64 { return o.AnchorWeight }, 0.03},
		{"AnchorWeight passthrough", Options{AnchorWeight: 0.5}, func(o Options) float64 { return o.AnchorWeight }, 0.5},
	}
	for _, c := range cases {
		got := c.get(c.in.withDefaults())
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
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
