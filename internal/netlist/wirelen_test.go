package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// wirelenTestDesign builds a design with nCells INV cells at random spots,
// random multi-pin nets (some including ports), for cache equivalence tests.
func wirelenTestDesign(t testing.TB, nCells, nNets int, seed int64) *Design {
	t.Helper()
	lib := testLib()
	d := NewDesign("wl", lib)
	d.Core = Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}
	rng := rand.New(rand.NewSource(seed))
	inv := lib.Master("INV")
	for i := 0; i < nCells; i++ {
		inst := d.AddInstance(name("c", i), inv)
		inst.X = rng.Float64() * 1000
		inst.Y = rng.Float64() * 1000
	}
	for i := 0; i < 8; i++ {
		p := d.AddPort(name("p", i), DirOutput)
		p.X = rng.Float64() * 1000
		p.Y = rng.Float64() * 1000
	}
	for i := 0; i < nNets; i++ {
		n := d.AddNet(name("n", i))
		fan := 1 + rng.Intn(5)
		drv := rng.Intn(nCells)
		d.Connect(n, pinRef(d, drv, "Y"))
		for k := 0; k < fan; k++ {
			if rng.Intn(8) == 0 {
				d.Connect(n, pinRef(d, -1, name("p", rng.Intn(8))))
			} else {
				d.Connect(n, pinRef(d, rng.Intn(nCells), "A"))
			}
		}
	}
	return d
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i/676%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

// wirelenHardDesign extends the random design with the shapes the pin-slot
// index must get right: a 5 000-pin net, an instance with two pins (at
// distinct offsets) on one net, a net whose only other pin is a port, and a
// net whose first pin is a port. hot lists the instances on those nets.
func wirelenHardDesign(t testing.TB) (d *Design, hot []int) {
	t.Helper()
	d = wirelenTestDesign(t, 5200, 300, 5)
	ofs := &Master{Name: "OFS", Class: ClassCore, Width: 2, Height: 2}
	ofs.AddPin(MasterPin{Name: "A", Dir: DirInput, OffsetX: 0.25, OffsetY: 0.5})
	ofs.AddPin(MasterPin{Name: "Y", Dir: DirOutput, OffsetX: 1.75, OffsetY: 1.5})
	if err := d.Lib.AddMaster(ofs); err != nil {
		t.Fatal(err)
	}
	var o [2]int
	for i := range o {
		inst := d.AddInstance(fmt.Sprintf("ofs%d", i), ofs)
		inst.X, inst.Y = 300+100*float64(i), 400
		o[i] = inst.ID
	}
	net := func(netName string, pins ...PinRef) {
		n := d.AddNet(netName)
		for _, p := range pins {
			d.Connect(n, p)
		}
	}
	big := make([]PinRef, 0, 5001)
	for i := 0; i < 5000; i++ {
		big = append(big, pinRef(d, i, "A"))
	}
	net("big", append(big, pinRef(d, o[0], "A"))...)
	net("twice", pinRef(d, o[0], "A"), pinRef(d, 7, "A"), pinRef(d, o[0], "Y"))
	net("portonly", pinRef(d, o[1], "Y"), pinRef(d, -1, name("p", 0)))
	net("portfirst", pinRef(d, -1, name("p", 1)), pinRef(d, o[1], "A"), pinRef(d, 9, "A"))
	return d, []int{o[0], o[1], 0, 7, 9, 4999}
}

// checkWirelenCache compares every cached per-net value and the total
// against the from-scratch pointer-graph recompute, bit for bit.
func checkWirelenCache(t *testing.T, stage string, d *Design, c *WirelenCache) {
	t.Helper()
	for i, n := range d.Nets {
		want := d.NetHPWL(n)
		if math.Float64bits(c.NetHPWL(i)) != math.Float64bits(want) {
			t.Fatalf("%s: net %d (%s) cached %v want %v", stage, i, n.Name, c.NetHPWL(i), want)
		}
	}
	if math.Float64bits(c.Total()) != math.Float64bits(d.HPWL()) {
		t.Fatalf("%s: total %v want %v", stage, c.Total(), d.HPWL())
	}
}

// TestWirelenCacheMatchesHPWL drives a random move sequence through the
// cache, on a random low-fan-out design and on the hard shapes, and checks
// the cache against the from-scratch recompute.
func TestWirelenCacheMatchesHPWL(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		testWirelenCacheMoves(t, wirelenTestDesign(t, 120, 200, 1), nil)
	})
	t.Run("hard", func(t *testing.T) {
		d, hot := wirelenHardDesign(t)
		c := testWirelenCacheMoves(t, d, hot)
		// Make one pin own every edge it can of the 5 000-pin net, then take
		// it back inside: expansion cannot shrink a bbox, so only the exact
		// recompute gets this right.
		c.MoveCell(hot[0], 5000, 5000)
		checkWirelenCache(t, "outward", d, c)
		c.MoveCell(hot[0], 500, 500)
		checkWirelenCache(t, "inward", d, c)
	})
}

// testWirelenCacheMoves runs the random move sequence; half the moves go to
// the hot instances when any are given.
func testWirelenCacheMoves(t *testing.T, d *Design, hot []int) *WirelenCache {
	c := NewWirelenCache(d)
	checkWirelenCache(t, "initial", d, c)
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 2000; step++ {
		id := rng.Intn(len(d.Insts))
		if len(hot) > 0 && rng.Intn(2) == 0 {
			id = hot[rng.Intn(len(hot))]
		}
		var x, y float64
		switch rng.Intn(4) {
		case 0: // small jitter (usually expansion or interior)
			x = d.Insts[id].X + rng.NormFloat64()
			y = d.Insts[id].Y + rng.NormFloat64()
		case 1: // jump (often bbox-edge handoff -> exact recompute)
			x = rng.Float64() * 1000
			y = rng.Float64() * 1000
		case 2: // axis-only move
			x = rng.Float64() * 1000
			y = d.Insts[id].Y
		default: // revisit an old spot exactly (swap/revert pattern)
			x = math.Trunc(rng.Float64() * 10)
			y = math.Trunc(rng.Float64() * 10)
		}
		c.MoveCell(id, x, y)
		if step%97 == 0 || step == 1999 {
			checkWirelenCache(t, fmt.Sprintf("step %d", step), d, c)
		}
	}
	return c
}

// TestWirelenCacheRebuild verifies rebuild resyncs after out-of-band edits.
func TestWirelenCacheRebuild(t *testing.T) {
	d := wirelenTestDesign(t, 20, 30, 3)
	c := NewWirelenCache(d)
	d.Insts[4].X = 777 // bypass MoveCell
	c.rebuild()
	for i, n := range d.Nets {
		if math.Float64bits(c.NetHPWL(i)) != math.Float64bits(d.NetHPWL(n)) {
			t.Fatalf("net %d stale after rebuild", i)
		}
	}
}

// TestWirelenCacheMoveAllocFree asserts MoveCell allocates nothing in steady
// state, as required for the placer inner loop.
func TestWirelenCacheMoveAllocFree(t *testing.T) {
	d := wirelenTestDesign(t, 60, 100, 4)
	c := NewWirelenCache(d)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		// Alternate spots so both the expansion and recompute paths run.
		x := float64(i%7) * 150
		y := float64(i%5) * 200
		c.MoveCell(i%len(d.Insts), x, y)
		i++
	})
	if allocs != 0 {
		t.Fatalf("MoveCell allocates %v per call, want 0", allocs)
	}
}

// fanoutDesign builds nSmall+nBig single-pin cells at random spots on two
// nets, "small" over the first nSmall cells and "big" over the rest. The first
// two cells of each net sit on the core's corners and own the net's bbox, so
// moves of any other cell inside the core take the expansion path.
func fanoutDesign(t testing.TB, nSmall, nBig int) *Design {
	t.Helper()
	lib := testLib()
	d := NewDesign("fanout", lib)
	d.Core = Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}
	rng := rand.New(rand.NewSource(9))
	inv := lib.Master("INV")
	for _, size := range [2]int{nSmall, nBig} {
		n := d.AddNet(fmt.Sprintf("n%d", size))
		for i := 0; i < size; i++ {
			inst := d.AddInstance(fmt.Sprintf("c%d_%d", size, i), inv)
			switch i {
			case 0:
				inst.X, inst.Y = 0, 0
			case 1:
				inst.X, inst.Y = 1000, 1000
			default:
				inst.X, inst.Y = rng.Float64()*1000, rng.Float64()*1000
			}
			d.Connect(n, pinRef(d, inst.ID, "A"))
		}
	}
	return d
}

// TestWirelenCacheMoveIndependentOfFanout pins the complexity claim: moving a
// cell of a 100 000-pin net costs about what moving a cell of a 100-pin net
// does. A MoveCell that scans the net for the cell's pins is ~1000x off; the
// bound of 5 leaves room for timer noise.
func TestWirelenCacheMoveIndependentOfFanout(t *testing.T) {
	const nSmall, nBig = 100, 100000
	d := fanoutDesign(t, nSmall, nBig)
	c := NewWirelenCache(d)
	perMove := func(id int) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MoveCell(id, 500+float64(i&1), 500)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	small, big := perMove(nSmall/2), perMove(nSmall+nBig/2)
	t.Logf("MoveCell: %.1f ns on the %d-pin net, %.1f ns on the %d-pin net", small, nSmall, big, nBig)
	if big > 5*small {
		t.Fatalf("MoveCell on a %d-pin net costs %.1f ns, %.1fx the %.1f ns on a %d-pin net; want < 5x",
			nBig, big, big/small, small, nSmall)
	}
	checkWirelenCache(t, "after timing", d, c)
}

// TestWirelenCacheSwapCostMatchesMoveCell holds the read-only swap pricing
// to the moves it stands for: on the hard shapes (two-pin cells, ports, a
// 5 000-pin net) and on cells stacked on one spot, for random pairs — half
// of them sharing a net, some at one origin — SwapCost's two sums must equal,
// bit for bit, the sums of the cached HPWL of the two cells' nets around
// MoveCell(a, b's origin) and MoveCell(b, a's origin), and SwapCost must
// leave every cached box, HPWL and position as it found them. Half the swaps
// are kept, so the pairs are priced on an evolving placement.
func TestWirelenCacheSwapCostMatchesMoveCell(t *testing.T) {
	d, hot := wirelenHardDesign(t)
	for i := 100; i < 140; i++ { // coincident pins: forty cells on one spot
		d.Insts[i].X, d.Insts[i].Y = 250, 250
		hot = append(hot, i)
	}
	c := NewWirelenCache(d)
	cm := d.Compact()
	netCost := func(a, b int) float64 {
		seen := map[int32]bool{}
		var sum float64
		for _, id := range [2]int{a, b} {
			for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
				if n := cm.InstNets[j]; !seen[n] {
					seen[n] = true
					sum += c.NetHPWL(int(n))
				}
			}
		}
		return sum
	}
	snapshot := func() [][]float64 {
		var s [][]float64
		for _, a := range [][]float64{c.minX, c.maxX, c.minY, c.maxY, c.hp, c.pos.InstX, c.pos.InstY} {
			s = append(s, append([]float64(nil), a...))
		}
		return s
	}
	rng := rand.New(rand.NewSource(3))
	pick := func() int {
		if rng.Intn(2) == 0 {
			return hot[rng.Intn(len(hot))]
		}
		return rng.Intn(len(d.Insts))
	}
	shared, moved := 0, 0
	for step := 0; step < 3000; step++ {
		a := pick()
		b := pick()
		if rng.Intn(2) == 0 && cm.InstStart[a+1] > cm.InstStart[a] {
			// b shares one of a's nets (a small one, or the 5 000-pin net).
			n := cm.InstNets[cm.InstStart[a]+int32(rng.Intn(int(cm.InstStart[a+1]-cm.InstStart[a])))]
			b = int(cm.PinInst[cm.NetStart[n]+int32(rng.Intn(cm.NumNetPins(int(n))))])
		}
		if b < 0 || a == b {
			continue
		}
		if rng.Intn(10) == 0 { // a and b at one origin: the swap moves nothing
			bx, by := c.InstXY(b)
			c.MoveCell(a, bx, by)
		}
		snap := snapshot()
		before, after := c.SwapCost(a, b)
		for i, arr := range snapshot() {
			for k, v := range arr {
				if math.Float64bits(v) != math.Float64bits(snap[i][k]) {
					t.Fatalf("step %d: SwapCost(%d, %d) wrote array %d at %d", step, a, b, i, k)
				}
			}
		}
		wantBefore := netCost(a, b)
		ax, ay := c.InstXY(a)
		bx, by := c.InstXY(b)
		c.MoveCell(a, bx, by)
		c.MoveCell(b, ax, ay)
		wantAfter := netCost(a, b)
		if math.Float64bits(before) != math.Float64bits(wantBefore) || math.Float64bits(after) != math.Float64bits(wantAfter) {
			t.Fatalf("step %d: SwapCost(%d, %d) = (%v, %v), MoveCell gives (%v, %v)", step, a, b, before, after, wantBefore, wantAfter)
		}
		if wantBefore != wantAfter {
			moved++
		}
		if rng.Intn(2) == 0 {
			c.MoveCell(a, ax, ay)
			c.MoveCell(b, bx, by)
		}
		for j, s := cm.InstStart[a], c.slotStart[b]; j < cm.InstStart[a+1]; j++ {
			if len(c.slotsOn(&s, c.slotStart[b+1], cm.InstNets[j])) > 0 {
				shared++
				break
			}
		}
		if step%97 == 0 {
			checkWirelenCache(t, fmt.Sprintf("step %d", step), d, c)
		}
	}
	t.Logf("%d swaps of cells sharing a net, %d that changed HPWL", shared, moved)
	if shared < 500 || moved < 500 {
		t.Fatalf("%d swaps of cells sharing a net, %d that changed HPWL; want both kinds well covered", shared, moved)
	}
}
