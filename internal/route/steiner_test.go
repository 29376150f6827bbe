package route

import (
	"math/rand"
	"reflect"
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

// referenceSteiner is the 1-Steiner search as it stood before candidates
// were priced from the current tree: a fresh Prim MST per Hanan candidate,
// deduplicated with a map per added point. TestSteinerMatchesReference
// holds steiner to it segment for segment.
func referenceSteiner(cells [][2]int, maxPins int) [][4]int {
	var sc decScratch
	if len(cells) < 3 || len(cells) > maxSteinerPins {
		return sc.decompose(cells, maxPins, nil)
	}
	pts := append([][2]int(nil), cells...)
	terminals := len(pts)
	mstLen := func(ps [][2]int) int {
		return treeLength(sc.decompose(ps, maxPins, nil))
	}
	base := mstLen(pts)
	for added := 0; added < terminals-2; added++ {
		bestGain := 0
		var bestPt [2]int
		seen := map[[2]int]bool{}
		for _, p := range pts {
			seen[p] = true
		}
		for _, a := range pts[:terminals] {
			for _, b := range pts[:terminals] {
				cand := [2]int{a[0], b[1]}
				if seen[cand] {
					continue
				}
				seen[cand] = true
				trial := append(pts, cand)
				if g := base - mstLen(trial); g > bestGain {
					bestGain = g
					bestPt = cand
				}
			}
		}
		if bestGain <= 0 {
			break
		}
		pts = append(pts, bestPt)
		base -= bestGain
	}
	return sc.decompose(pts, maxPins, nil)
}

// randomNet draws lo..hi distinct cells on a span × span grid (fewer when
// the grid is smaller), as the router passes deduplicated GCells; small
// spans repeat coordinates and make collinear sets.
func randomNet(rng *rand.Rand, lo, hi, span int) [][2]int {
	n := lo + rng.Intn(hi-lo+1)
	if n > span*span {
		n = span * span
	}
	cells := make([][2]int, 0, n)
	for len(cells) < n {
		c := [2]int{rng.Intn(span), rng.Intn(span)}
		dup := false
		for _, d := range cells {
			dup = dup || d == c
		}
		if !dup {
			cells = append(cells, c)
		}
	}
	return cells
}

// TestSteinerMatchesReference requires the tree-priced search to choose the
// same Steiner points, and so emit the same segments, as the Prim-per-
// candidate reference on 3..16-terminal nets over spans of 3..40 cells.
func TestSteinerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var sc decScratch
	var got [][4]int
	for k := 0; k < 20000; k++ {
		cells := randomNet(rng, 3, maxSteinerPins, 3+rng.Intn(38))
		got = sc.steiner(cells, maxNetPins, got[:0])
		want := referenceSteiner(cells, maxNetPins)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("net %d %v:\n got %v\nwant %v", k, cells, got, want)
		}
	}
}

// TestSteinerThreeTerminalOptimal checks the search against known optima:
// the rectilinear Steiner minimum of three points is their bounding box's
// half-perimeter. Shifting a net by (dx, dy) must shift every segment by
// (dx, dy), on 3-terminal and larger nets alike.
func TestSteinerThreeTerminalOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 2000; k++ {
		lo, hi := 3, 3
		if k%2 == 1 {
			lo, hi = 4, maxSteinerPins
		}
		cells := randomNet(rng, lo, hi, 4+rng.Intn(30))
		segs := steinerSegs(cells, maxNetPins)
		if len(cells) == 3 {
			if got, want := treeLength(segs), hpwlOf(cells); got != want {
				t.Fatalf("net %v: tree length %d, want half-perimeter %d", cells, got, want)
			}
		}
		dx, dy := rng.Intn(100)-50, rng.Intn(100)-50
		moved := make([][2]int, len(cells))
		for i, c := range cells {
			moved[i] = [2]int{c[0] + dx, c[1] + dy}
		}
		shifted := steinerSegs(moved, maxNetPins)
		if len(shifted) != len(segs) {
			t.Fatalf("net %v shifted by (%d,%d): %d segments, want %d", cells, dx, dy, len(shifted), len(segs))
		}
		for i, s := range segs {
			if want := [4]int{s[0] + dx, s[1] + dy, s[2] + dx, s[3] + dy}; shifted[i] != want {
				t.Fatalf("net %v shifted by (%d,%d): segment %d is %v, want %v", cells, dx, dy, i, shifted[i], want)
			}
		}
	}
}

// TestSteinerHotLoopAllocFree gates the 1-Steiner path: once a worker's
// scratch has seen the largest nets, decomposing 5..16-terminal nets must
// not allocate.
func TestSteinerHotLoopAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nets := make([][][2]int, 64)
	for i := range nets {
		nets[i] = randomNet(rng, 5, maxSteinerPins, 40)
	}
	var sc decScratch
	var segs [][4]int
	for _, cells := range nets { // warm
		segs = sc.steiner(cells, maxNetPins, segs[:0])
	}
	avg := testing.AllocsPerRun(20, func() {
		for _, cells := range nets {
			segs = sc.steiner(cells, maxNetPins, segs[:0])
		}
	})
	if avg != 0 {
		t.Fatalf("steiner allocates %.1f times per %d nets, want 0", avg, len(nets))
	}
}

// BenchmarkSteiner decomposes a fixed seeded mix of 1 000 nets of 3..16
// terminals on spans of 3..40 cells, one worker's scratch reused as the
// router reuses it; one op is the whole mix.
func BenchmarkSteiner(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nets := make([][][2]int, 1000)
	for i := range nets {
		nets[i] = randomNet(rng, 3, maxSteinerPins, 3+rng.Intn(38))
	}
	var sc decScratch
	var segs [][4]int
	for _, cells := range nets { // warm
		segs = sc.steiner(cells, maxNetPins, segs[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cells := range nets {
			segs = sc.steiner(cells, maxNetPins, segs[:0])
		}
	}
}

// hpwlOf is the half-perimeter of the cells' bounding box.
func hpwlOf(cells [][2]int) int {
	minX, maxX := cells[0][0], cells[0][0]
	minY, maxY := cells[0][1], cells[0][1]
	for _, c := range cells {
		minX, maxX = min(minX, c[0]), max(maxX, c[0])
		minY, maxY = min(minY, c[1]), max(maxY, c[1])
	}
	return (maxX - minX) + (maxY - minY)
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
		hpwl := hpwlOf(cells)
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
