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
		inst, err := d.AddInstance(name("c", i), inv)
		if err != nil {
			t.Fatal(err)
		}
		inst.X = rng.Float64() * 1000
		inst.Y = rng.Float64() * 1000
	}
	for i := 0; i < 8; i++ {
		p, err := d.AddPort(name("p", i), DirOutput)
		if err != nil {
			t.Fatal(err)
		}
		p.X = rng.Float64() * 1000
		p.Y = rng.Float64() * 1000
	}
	for i := 0; i < nNets; i++ {
		n, err := d.AddNet(name("n", i))
		if err != nil {
			t.Fatal(err)
		}
		fan := 1 + rng.Intn(5)
		drv := rng.Intn(nCells)
		d.Connect(n, PinRef{Inst: drv, Pin: "Y"})
		for k := 0; k < fan; k++ {
			if rng.Intn(8) == 0 {
				d.Connect(n, PinRef{Inst: -1, Pin: name("p", rng.Intn(8))})
			} else {
				d.Connect(n, PinRef{Inst: rng.Intn(nCells), Pin: "A"})
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
		inst, err := d.AddInstance(fmt.Sprintf("ofs%d", i), ofs)
		if err != nil {
			t.Fatal(err)
		}
		inst.X, inst.Y = 300+100*float64(i), 400
		o[i] = inst.ID
	}
	net := func(netName string, pins ...PinRef) {
		n, err := d.AddNet(netName)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pins {
			d.Connect(n, p)
		}
	}
	big := make([]PinRef, 0, 5001)
	for i := 0; i < 5000; i++ {
		big = append(big, PinRef{Inst: i, Pin: "A"})
	}
	net("big", append(big, PinRef{Inst: o[0], Pin: "A"})...)
	net("twice", PinRef{Inst: o[0], Pin: "A"}, PinRef{Inst: 7, Pin: "A"}, PinRef{Inst: o[0], Pin: "Y"})
	net("portonly", PinRef{Inst: o[1], Pin: "Y"}, PinRef{Inst: -1, Pin: name("p", 0)})
	net("portfirst", PinRef{Inst: -1, Pin: name("p", 1)}, PinRef{Inst: o[1], Pin: "A"}, PinRef{Inst: 9, Pin: "A"})
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
	d := NewDesignSized("fanout", lib, nSmall+nBig, 2)
	d.Core = Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}
	rng := rand.New(rand.NewSource(9))
	inv := lib.Master("INV")
	for _, size := range [2]int{nSmall, nBig} {
		n, err := d.AddNet(fmt.Sprintf("n%d", size))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size; i++ {
			inst, err := d.AddInstance(fmt.Sprintf("c%d_%d", size, i), inv)
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
				inst.X, inst.Y = 0, 0
			case 1:
				inst.X, inst.Y = 1000, 1000
			default:
				inst.X, inst.Y = rng.Float64()*1000, rng.Float64()*1000
			}
			d.Connect(n, PinRef{Inst: inst.ID, Pin: "A"})
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
