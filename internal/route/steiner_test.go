package route

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mstSegs and steinerSegs run the two decompositions on fresh scratch.
func mstSegs(cells [][2]int) [][4]int {
	var sc decScratch
	return sc.decompose(cells, 64, nil)
}

func steinerSegs(cells [][2]int, maxPins int) [][4]int {
	var sc decScratch
	return sc.steiner(cells, maxPins, nil)
}

// treeLength is the total Manhattan length of a decomposition.
func treeLength(segs [][4]int) int {
	total := 0
	for _, s := range segs {
		total += abs(s[2]-s[0]) + abs(s[3]-s[1])
	}
	return total
}

func TestSteinerBeatsMSTOnLCase(t *testing.T) {
	// Classic 3-terminal case: MST = 6, Steiner (via (1,0)) = 5.
	cells := [][2]int{{0, 0}, {2, 0}, {1, 3}}
	mst := treeLength(mstSegs(cells))
	st := treeLength(steinerSegs(cells, 1<<30))
	if st >= mst {
		t.Fatalf("steiner %d should beat mst %d", st, mst)
	}
	if st != 5 {
		t.Fatalf("steiner length=%d want 5", st)
	}
}

func TestSteinerTwoPinsIsDirect(t *testing.T) {
	if got := treeLength(steinerSegs([][2]int{{0, 0}, {3, 4}}, 1<<30)); got != 7 {
		t.Fatalf("2-pin steiner=%d want 7", got)
	}
}

func TestPropertySteinerNeverWorseThanMST(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		seen := map[[2]int]bool{}
		var cells [][2]int
		for len(cells) < n {
			c := [2]int{rng.Intn(20), rng.Intn(20)}
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
		mst := treeLength(mstSegs(cells))
		st := treeLength(steinerSegs(cells, 1<<30))
		// Steiner must not exceed MST, and must stay above the HPWL bound.
		minX, maxX := cells[0][0], cells[0][0]
		minY, maxY := cells[0][1], cells[0][1]
		for _, c := range cells {
			if c[0] < minX {
				minX = c[0]
			}
			if c[0] > maxX {
				maxX = c[0]
			}
			if c[1] < minY {
				minY = c[1]
			}
			if c[1] > maxY {
				maxY = c[1]
			}
		}
		hpwl := (maxX - minX) + (maxY - minY)
		return st <= mst && st >= hpwl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySteinerStillConnects(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		seen := map[[2]int]bool{}
		var cells [][2]int
		for len(cells) < n {
			c := [2]int{rng.Intn(15), rng.Intn(15)}
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
		segs := steinerSegs(cells, 64)
		// Union-find over all endpoint coordinates; every terminal must end
		// in one component.
		id := map[[2]int]int{}
		get := func(p [2]int) int {
			if v, ok := id[p]; ok {
				return v
			}
			id[p] = len(id)
			return id[p]
		}
		parent := []int{}
		find := func(v int) int {
			for parent[v] != v {
				parent[v] = parent[parent[v]]
				v = parent[v]
			}
			return v
		}
		ensure := func(v int) {
			for len(parent) <= v {
				parent = append(parent, len(parent))
			}
		}
		for _, s := range segs {
			a, b := get([2]int{s[0], s[1]}), get([2]int{s[2], s[3]})
			ensure(a)
			ensure(b)
			parent[find(a)] = find(b)
		}
		if len(parent) == 0 {
			return false
		}
		root := -1
		for _, c := range cells {
			v, ok := id[c]
			if !ok {
				return false // terminal dropped
			}
			if root < 0 {
				root = find(v)
			} else if find(v) != root {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
