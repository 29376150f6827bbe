package place

import (
	"math"
	"strconv"
	"testing"
	"time"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

// TestGlobalWorkersEquivalent asserts the determinism contract for the
// placer: every worker count produces bit-identical positions, HPWL, overflow
// and iteration counts to Workers=1 — 2 (the axes, and the halves of the
// bisection's first cut, side by side over sequential kernels) and 3, 4, 8
// (the same two forks: nothing below them takes a budget) — from scratch,
// incrementally and under the flow's Innovus recipe (soft regions dropped
// after two rounds), on a ~320-cell and a 6.5k-cell (ariane) design.
func TestGlobalWorkersEquivalent(t *testing.T) {
	ariane, ok := designs.Named("ariane")
	if !ok {
		t.Fatal("ariane spec missing")
	}
	run := func(t *testing.T, d *netlist.Design, opt Options) {
		ds := d.Clone()
		opt.Workers = 1
		rs := Global(ds, opt)
		for _, w := range []int{2, 3, 4, 8} {
			dp := d.Clone()
			opt.Workers = w
			rp := Global(dp, opt)
			if math.Float64bits(rs.HPWL) != math.Float64bits(rp.HPWL) ||
				rs.Iterations != rp.Iterations ||
				rs.CGIterations != rp.CGIterations ||
				math.Float64bits(rs.Overflow) != math.Float64bits(rp.Overflow) {
				t.Fatalf("W=%d results differ: seq %+v par %+v", w, rs, rp)
			}
			for i := range ds.Insts {
				a, b := ds.Insts[i], dp.Insts[i]
				if math.Float64bits(a.X) != math.Float64bits(b.X) ||
					math.Float64bits(a.Y) != math.Float64bits(b.Y) {
					t.Fatalf("W=%d: instance %s placed at (%v,%v) seq vs (%v,%v) par",
						w, a.Name, a.X, a.Y, b.X, b.Y)
				}
			}
		}
	}
	for _, tc := range []struct {
		name        string
		spec        designs.Spec
		incremental bool
		regions     bool
	}{
		{"scratch", designs.TinySpec(31), false, false},
		{"incremental", designs.TinySpec(32), true, false},
		{"innovus", designs.TinySpec(34), true, true},
		{"scratch-ariane", ariane, false, false},
		{"incremental-ariane", ariane, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := designs.Generate(tc.spec).Design
			if !tc.incremental {
				run(t, d, Options{Seed: 3})
				return
			}
			Global(d, Options{Seed: 4}) // seed positions
			opt := Options{Seed: 5, Incremental: true}
			if tc.regions {
				opt.Regions, _ = quadrantRegions(d)
				opt.SoftRegions = true
				opt.RegionIterations = 2
			}
			run(t, d, opt)
		})
	}
}

// TestGlobalCoarseInitWorkersEquivalent forces the multigrid warm start on a
// design far below its auto threshold and asserts the full pipeline —
// clustering, the coarse solve, spiral interpolation, fine refinement — is
// bit-identical across worker counts.
func TestGlobalCoarseInitWorkersEquivalent(t *testing.T) {
	d := designs.Generate(designs.TinySpec(33)).Design
	ds := d.Clone()
	dp := d.Clone()
	rs := Global(ds, Options{Seed: 6, Workers: 1, coarseInit: 1})
	rp := Global(dp, Options{Seed: 6, Workers: 4, coarseInit: 1})
	if math.Float64bits(rs.HPWL) != math.Float64bits(rp.HPWL) ||
		rs.Iterations != rp.Iterations ||
		rs.CGIterations != rp.CGIterations ||
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
	// The warm start must actually have engaged: a coarse-solved start
	// differs from the center-seeded flat solve.
	dflat := d.Clone()
	rf := Global(dflat, Options{Seed: 6, Workers: 1, coarseInit: -1})
	if math.Float64bits(rf.HPWL) == math.Float64bits(rs.HPWL) &&
		rf.CGIterations == rs.CGIterations {
		t.Fatal("coarseInit:1 produced the flat-solve result; warm start did not engage")
	}
}

// TestCoarseInitRecursionTerminates covers the case where the warm start's
// clustering cannot coarsen: MultilevelFC never merges unconnected cells, so
// a design just above coarseInitMinCells with ten nets hands coarseInit a
// coarse design of the same size. The coarse solve must not warm-start in
// turn, or the recursion never ends.
func TestCoarseInitRecursionTerminates(t *testing.T) {
	const n = coarseInitMinCells + 10000
	lib := netlist.NewLibrary("sparse_lib")
	m := &netlist.Master{Name: "c", Class: netlist.ClassCore, Width: 1, Height: 1}
	if err := lib.AddMaster(m); err != nil {
		t.Fatal(err)
	}
	d := netlist.NewDesignSized("sparse", lib, n, 10)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 700, Y1: 700}
	for i := 0; i < n; i++ {
		if _, err := d.AddInstance("i"+strconv.Itoa(i), m); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 10; e++ {
		net, err := d.AddNet("n" + strconv.Itoa(e))
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(net, netlist.PinRef{Inst: 2 * e, Pin: "p"})
		d.Connect(net, netlist.PinRef{Inst: 2*e + 1, Pin: "p"})
	}
	done := make(chan Result, 1)
	go func() { done <- Global(d, Options{Seed: 1, Iterations: 1}) }()
	select {
	case r := <-done:
		if r.Iterations != 1 {
			t.Fatalf("ran %d rounds, want 1", r.Iterations)
		}
	case <-time.After(time.Minute):
		t.Fatal("Global did not return: the coarse solve re-entered the warm start")
	}
}
