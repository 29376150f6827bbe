package route

import (
	"math"
	"testing"

	"ppaclust/internal/netlist"
)

func TestGridBasics(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	g := newGrid(core, 10, 5)
	if g.nx != 11 || g.ny != 11 {
		t.Fatalf("grid %dx%d", g.nx, g.ny)
	}
	i, j := g.cell(55, 5)
	if i != 5 || j != 0 {
		t.Fatalf("cell=(%d,%d)", i, j)
	}
	// Clamping outside the core.
	i, j = g.cell(-10, 1e9)
	if i != 0 || j != g.ny-1 {
		t.Fatalf("clamped cell=(%d,%d)", i, j)
	}
	if g.nx*g.ny != 121 {
		t.Fatalf("cells=%d", g.nx*g.ny)
	}
}

func TestEdgeCostGrowsWithOverflow(t *testing.T) {
	if edgeCost(0, 10) != 1 {
		t.Fatal("free edge should cost 1")
	}
	if edgeCost(10, 10) <= edgeCost(5, 10) {
		t.Fatal("full edge should cost more")
	}
	if edgeCost(20, 10) <= edgeCost(10, 10) {
		t.Fatal("overflowed edge should cost even more")
	}
	if edgeCost(0, 0) < 1e5 {
		t.Fatal("zero-capacity edge should be prohibitive")
	}
}

func TestRouteStraightLine(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	g := newGrid(core, 10, 5)
	s := g.route(0, 0, 5, 0)
	if s.length() != 5 {
		t.Fatalf("length=%d want 5", s.length())
	}
	g.apply(s, 1)
	for i := 0; i < 5; i++ {
		if g.use[g.hIdx(i, 0)] != 1 {
			t.Fatalf("edge %d not used", i)
		}
	}
	g.apply(s, -1)
	for i := 0; i < 5; i++ {
		if g.use[g.hIdx(i, 0)] != 0 {
			t.Fatal("rip-up did not restore usage")
		}
	}
}

func TestRouteAvoidsCongestion(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	g := newGrid(core, 10, 1) // capacity 1
	// Saturate the direct horizontal row j=0.
	for i := 0; i < 10; i++ {
		g.use[g.hIdx(i, 0)] = 1
	}
	s := g.route(0, 0, 9, 0)
	// The best route should detour off row 0.
	c := routeCtx{g: g}
	direct := segRoute{i0: 0, j0: 0, i1: 9, j1: 0, im: 9, hFirst: true}
	if c.cost(s) >= c.cost(direct) {
		t.Fatalf("router did not avoid congestion: cost %v vs direct %v", c.cost(s), c.cost(direct))
	}
}

func TestDecomposeMST(t *testing.T) {
	cells := [][2]int{{0, 0}, {0, 5}, {5, 0}}
	segs := mstSegs(cells)
	if len(segs) != 2 {
		t.Fatalf("segments=%d want 2", len(segs))
	}
	// Total MST length = 10.
	total := 0
	for _, s := range segs {
		total += abs(s[2]-s[0]) + abs(s[3]-s[1])
	}
	if total != 10 {
		t.Fatalf("MST length=%d want 10", total)
	}
}

func TestDecomposeHugeNetChains(t *testing.T) {
	var cells [][2]int
	for i := 0; i < 200; i++ {
		cells = append(cells, [2]int{i % 20, i / 20})
	}
	segs := mstSegs(cells)
	if len(segs) != len(cells)-1 {
		t.Fatalf("chain segments=%d want %d", len(segs), len(cells)-1)
	}
}

func TestTopPercentAvg(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	g := newGrid(core, 10, 10)
	// One very hot edge.
	g.use[g.hIdx(0, 0)] = 20
	top1 := g.TopPercentAvg(1)
	top100 := g.TopPercentAvg(100)
	if top1 < top100 {
		t.Fatalf("top1=%v should be >= top100=%v", top1, top100)
	}
	if math.Abs(top1-2.0) > 1e-9 {
		t.Fatalf("top1=%v want 2.0", top1)
	}
	// x clamps to at least one cell.
	if g.TopPercentAvg(0.0001) != 2.0 {
		t.Fatal("tiny percent should still include the hottest cell")
	}
}

func TestCellCongestionShape(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 50, Y1: 50}
	g := newGrid(core, 10, 4)
	c := g.cellCongestion()
	if len(c) != g.nx*g.ny {
		t.Fatalf("len=%d want %d", len(c), g.nx*g.ny)
	}
	g.use[g.hIdx(2, 3)] = 2
	c = g.cellCongestion()
	if c[3*g.nx+2] != 0.5 {
		t.Fatalf("congestion=%v want 0.5", c[3*g.nx+2])
	}
}
