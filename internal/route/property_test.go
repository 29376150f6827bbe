package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppaclust/internal/netlist"
)

// TestPropertySegmentLengthLowerBound: every routed 2-pin segment is at
// least as long as its Manhattan distance, and usage applied then removed
// restores a clean grid.
func TestPropertySegmentLengthLowerBound(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 200, Y1: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := newGrid(core, 10, 4, 4)
		for k := 0; k < 30; k++ {
			i0, j0 := rng.Intn(g.nx), rng.Intn(g.ny)
			i1, j1 := rng.Intn(g.nx), rng.Intn(g.ny)
			s := g.route(i0, j0, i1, j1)
			if s.length() < abs(i1-i0)+abs(j1-j0) {
				return false
			}
			g.apply(s, 1)
			g.apply(s, -1)
		}
		for _, u := range g.hUse {
			if u != 0 {
				return false
			}
		}
		for _, u := range g.vUse {
			if u != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMSTConnects: decompose yields exactly n-1 segments over n
// distinct cells and touches every cell.
func TestPropertyMSTConnects(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		seen := map[[2]int]bool{}
		var cells [][2]int
		for len(cells) < n {
			c := [2]int{rng.Intn(30), rng.Intn(30)}
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
		segs := mstSegs(cells)
		if len(segs) != n-1 {
			return false
		}
		// Union-find connectivity over cells.
		idx := map[[2]int]int{}
		for i, c := range cells {
			idx[c] = i
		}
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(v int) int {
			for parent[v] != v {
				parent[v] = parent[parent[v]]
				v = parent[v]
			}
			return v
		}
		for _, s := range segs {
			a := idx[[2]int{s[0], s[1]}]
			b := idx[[2]int{s[2], s[3]}]
			parent[find(a)] = find(b)
		}
		root := find(0)
		for i := 1; i < n; i++ {
			if find(i) != root {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
