package route

import (
	"math/rand"
	"testing"

	"ppaclust/internal/netlist"
)

// cellWalk walks a segment's path one GCell step at a time, without Grid.runs:
// it returns the count of every unit edge crossed (keyed by the edge index of
// the grid's layout, written out here: horizontal edges row by row, then
// vertical ones), the step count, and how often consecutive steps change axis
// between horizontal and vertical. A U-detour that doubles back along one
// axis crosses its edges twice and changes no axis there.
func cellWalk(nx, ny int, s segRoute) (edges map[int]int, steps, turns int) {
	pts := [][2]int{{s.i0, s.j0}, {s.im, s.j0}, {s.im, s.j1}, {s.i1, s.j1}}
	if !s.hFirst {
		pts = [][2]int{{s.i0, s.j0}, {s.i0, s.im}, {s.i1, s.im}, {s.i1, s.j1}}
	}
	edges = map[int]int{}
	i, j := s.i0, s.j0
	lastAxis := -1
	for _, p := range pts[1:] {
		for i != p[0] || j != p[1] {
			axis := 0
			di, dj := 0, 0
			switch {
			case i < p[0]:
				di = 1
			case i > p[0]:
				di = -1
			case j < p[1]:
				dj, axis = 1, 1
			default:
				dj, axis = -1, 1
			}
			if axis == 0 {
				edges[j*(nx-1)+min(i, i+di)]++
			} else {
				edges[(nx-1)*ny+min(j, j+dj)*nx+i]++
			}
			if lastAxis >= 0 && axis != lastAxis {
				turns++
			}
			lastAxis = axis
			i, j = i+di, j+dj
			steps++
		}
	}
	return edges, steps, turns
}

// TestRunsMatchCellWalk holds apply, length, bends and segmentOverflowed to
// the cell-by-cell walk on every segment shape routeCtx.route tries (both
// L's, the quarter-point Z's, the clamped ±1/±2 U-detours), endpoints drawn
// on a non-square grid with shared rows and columns forced often.
func TestRunsMatchCellWalk(t *testing.T) {
	g := newGrid(netlist.Rect{X0: 0, Y0: 0, X1: 70, Y1: 40}, 10, 3) // 8x5 GCells
	rng := rand.New(rand.NewSource(7))
	clean, overflowed := 0, 0
	for trial := 0; trial < 200; trial++ {
		i0, j0, i1, j1 := rng.Intn(g.nx), rng.Intn(g.ny), rng.Intn(g.nx), rng.Intn(g.ny)
		switch trial % 5 {
		case 0:
			i1 = i0
		case 1:
			j1 = j0
		}
		seg := func(im int, hFirst bool) segRoute {
			return segRoute{i0: i0, j0: j0, i1: i1, j1: j1, im: im, hFirst: hFirst}
		}
		shapes := []segRoute{seg(i1, true), seg(i0, true), seg(j1, false), seg(j0, false)}
		for _, f := range []float64{0.25, 0.5, 0.75} {
			shapes = append(shapes, seg(i0+int(f*float64(i1-i0)), true), seg(j0+int(f*float64(j1-j0)), false))
		}
		for _, d := range []int{-2, -1, 1, 2} {
			shapes = append(shapes, seg(clampInt(i0+d, 0, g.nx-1), true), seg(clampInt(j0+d, 0, g.ny-1), false))
		}
		for _, s := range shapes {
			want, steps, turns := cellWalk(g.nx, g.ny, s)
			clear(g.use)
			g.apply(s, 1)
			for e, u := range g.use {
				if u != want[e] {
					t.Fatalf("%+v: apply put %d on edge %d, the walk crosses it %d times", s, u, e, want[e])
				}
			}
			if s.length() != steps {
				t.Fatalf("%+v: length %d, walk %d steps", s, s.length(), steps)
			}
			if s.bends() != turns {
				t.Fatalf("%+v: bends %d, walk turns %d times", s, s.bends(), turns)
			}
			over := false
			for e := range g.use {
				g.use[e] = rng.Intn(g.capacity + 1)
				if rng.Intn(40) == 0 {
					g.use[e] = g.capacity + 1
				}
				if want[e] > 0 && g.use[e] > g.capacity {
					over = true
				}
			}
			if g.segmentOverflowed(s) != over {
				t.Fatalf("%+v: segmentOverflowed %v, walk %v", s, !over, over)
			}
			if over {
				overflowed++
			} else {
				clean++
			}
		}
	}
	if clean+overflowed < 1000 || clean == 0 || overflowed == 0 {
		t.Fatalf("%d clean and %d overflowed segments: the draw misses a case", clean, overflowed)
	}
}
