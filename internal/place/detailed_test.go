package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

func TestDetailedNeverWorsensHPWL(t *testing.T) {
	b := designs.Generate(designs.TinySpec(301))
	d := b.Design
	Global(d, Options{Seed: 1})
	Legalize(d)
	res := Detailed(d, DetailedOptions{Seed: 1})
	if res.HPWLAfter > res.HPWLBefore+1e-6 {
		t.Fatalf("detailed placement worsened HPWL: %v -> %v", res.HPWLBefore, res.HPWLAfter)
	}
	if d.HPWL() != res.HPWLAfter {
		t.Fatal("reported HPWL inconsistent with design state")
	}
}

func TestDetailedImprovesScatteredPlacement(t *testing.T) {
	b := designs.Generate(designs.TinySpec(302))
	d := b.Design
	// A deliberately poor but legal placement: global then legalize, then
	// shuffle equal-width cells pairwise to inject badness.
	Global(d, Options{Seed: 2})
	Legalize(d)
	var last map[float64]int
	_ = last
	byWidth := map[float64][]int{}
	for _, inst := range d.Insts {
		if !inst.Fixed {
			byWidth[inst.Master.Width] = append(byWidth[inst.Master.Width], inst.ID)
		}
	}
	for _, ids := range byWidth {
		for i := 0; i+1 < len(ids); i += 2 {
			a, bb := d.Insts[ids[i]], d.Insts[ids[i+1]]
			a.X, bb.X = bb.X, a.X
			a.Y, bb.Y = bb.Y, a.Y
		}
	}
	res := Detailed(d, DetailedOptions{Seed: 2})
	if res.Swaps == 0 {
		t.Fatal("expected improving swaps on a shuffled placement")
	}
	if res.HPWLAfter >= res.HPWLBefore {
		t.Fatalf("no improvement: %v -> %v", res.HPWLBefore, res.HPWLAfter)
	}
}

func TestDetailedPreservesLegality(t *testing.T) {
	b := designs.Generate(designs.TinySpec(303))
	d := b.Design
	Global(d, Options{Seed: 3})
	Legalize(d)
	Detailed(d, DetailedOptions{Seed: 3})
	rep := CheckLegal(d)
	if rep.Overlaps != 0 || rep.OffRow != 0 || rep.Outside != 0 {
		t.Fatalf("legality broken: %+v", rep)
	}
}

func TestDetailedEmptyDesign(t *testing.T) {
	lib := designs.Lib()
	d := build(t, netlist.NewBuilder("empty-dp", lib))
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	res := Detailed(d, DetailedOptions{})
	if res.Swaps != 0 || res.HPWLAfter != res.HPWLBefore {
		t.Fatalf("empty design result: %+v", res)
	}
}

// TestDetailedDegenerateInputs covers inputs that leave Detailed nothing to
// do: it must return the placement untouched, not index buckets of a core
// with no area.
func TestDetailedDegenerateInputs(t *testing.T) {
	cases := []struct {
		name string
		prep func(d *netlist.Design)
	}{
		{"zero-width core", func(d *netlist.Design) { d.Core.X1 = d.Core.X0 }},
		{"zero-height core", func(d *netlist.Design) { d.Core.Y1 = d.Core.Y0 }},
		{"all cells fixed", func(d *netlist.Design) {
			for _, inst := range d.Insts {
				inst.Fixed = true
			}
		}},
		{"single movable cell", func(d *netlist.Design) {
			for _, inst := range d.Insts[1:] {
				inst.Fixed = true
			}
			d.Insts[0].Fixed = false
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := designs.Generate(designs.TinySpec(304)).Design
			Global(d, Options{Seed: 4})
			Legalize(d)
			tc.prep(d)
			type xy struct{ x, y float64 }
			before := make([]xy, len(d.Insts))
			for i, inst := range d.Insts {
				before[i] = xy{inst.X, inst.Y}
			}
			hpwl := d.HPWL()
			res := Detailed(d, DetailedOptions{Seed: 4})
			if res.Swaps != 0 || res.HPWLBefore != hpwl || res.HPWLAfter != hpwl {
				t.Fatalf("result %+v, want 0 swaps and HPWL %v on both sides", res, hpwl)
			}
			for i, inst := range d.Insts {
				if (xy{inst.X, inst.Y}) != before[i] {
					t.Fatalf("instance %d moved", i)
				}
			}
		})
	}
}

// TestDetailedPassAllocFree asserts that, once newDetailer has sized its
// arrays, a full pass at one worker — index rebuild and every tried swap —
// allocates nothing.
func TestDetailedPassAllocFree(t *testing.T) {
	d := designs.Generate(designs.ScaleSpec(5000, 1)).Design
	Global(d, Options{Seed: 1})
	Legalize(d)
	dp := newDetailer(d, DetailedOptions{Seed: 1, Workers: 1})
	if allocs := testing.AllocsPerRun(2, func() { dp.pass() }); allocs != 0 {
		t.Fatalf("a detailed-placement pass allocates %v times, want 0", allocs)
	}
}

// TestDetailedPassAllocsBounded asserts that a pass at two workers
// allocates nothing but par.ForEach's fork, once per chunk of the visit
// order. forkAllocs is what one par.ForEach call at two workers allocates,
// measured with testing.AllocsPerRun (it is 4 + 1 per goroutine).
func TestDetailedPassAllocsBounded(t *testing.T) {
	const forkAllocs = 6
	d := designs.Generate(designs.ScaleSpec(5000, 1)).Design
	Global(d, Options{Seed: 1})
	Legalize(d)
	dp := newDetailer(d, DetailedOptions{Seed: 1, Workers: 2})
	chunks := (len(dp.order) + detailChunk - 1) / detailChunk
	if allocs := testing.AllocsPerRun(2, func() { dp.pass() }); allocs > float64(chunks*forkAllocs) {
		t.Fatalf("a detailed-placement pass at two workers allocates %v times, want at most %d (%d chunks × %d)",
			allocs, chunks*forkAllocs, chunks, forkAllocs)
	}
}

// serialDetailed is Detailed as it ran before visits were evaluated side by
// side: one visit at a time, a fresh optimalSpot per visit, and a trial
// swap made with two MoveCell calls and undone with two more when it is
// rejected. It is the oracle of TestDetailedWorkersEquivalent.
func serialDetailed(d *netlist.Design, seed int64) DetailedResult {
	dp := newDetailer(d, DetailedOptions{Seed: seed, Workers: 1})
	res := DetailedResult{HPWLBefore: dp.wl.Total()}
	stamp := make([]int, len(d.Nets))
	epoch := 0
	netCost := func(id1, id2 int) float64 {
		epoch++
		var sum float64
		for _, id := range [2]int{id1, id2} {
			for j := dp.cm.InstStart[id]; j < dp.cm.InstStart[id+1]; j++ {
				if n := dp.cm.InstNets[j]; stamp[n] != epoch {
					stamp[n] = epoch
					sum += dp.wl.NetHPWL(int(n))
				}
			}
		}
		return sum
	}
	for pass := 0; pass < detailedPasses; pass++ {
		dp.rebuild()
		for _, ci := range dp.order {
			ox, oy, ok := dp.optimalSpot(dp.cells[ci], &dp.medians[0])
			if !ok {
				continue
			}
			self := dp.entry[ci]
			if math.Abs(ox-dp.ex[self])+math.Abs(oy-dp.ey[self]) < dp.bw/2 {
				continue
			}
			cand, _ := dp.nearestSameWidth(self, dp.class[ci], ox, oy)
			if cand < 0 {
				continue
			}
			a, b := int(dp.cells[ci]), int(dp.cells[dp.ecell[cand]])
			before := netCost(a, b)
			ax, ay := dp.wl.InstXY(a)
			bx, by := dp.wl.InstXY(b)
			dp.wl.MoveCell(a, bx, by)
			dp.wl.MoveCell(b, ax, ay)
			if netCost(a, b) < before-1e-9 {
				res.Swaps++
				dp.setCentre(self)
				dp.setCentre(cand)
			} else {
				dp.wl.MoveCell(a, ax, ay)
				dp.wl.MoveCell(b, bx, by)
			}
		}
	}
	res.HPWLAfter = dp.wl.Total()
	return res
}

// TestDetailedWorkersEquivalent holds Detailed at one, two and four workers
// to the serial oracle, bit for bit — every instance origin, the swap count
// and both HPWL totals — on the golden fixture (legalized and shuffled) and
// on a 10k-cell design, at two seeds. The shuffled fixture accepts
// thousands of swaps, so many chunks commit several and their later visits
// must be caught as dirty.
func TestDetailedWorkersEquivalent(t *testing.T) {
	golden := designs.Generate(designs.ScaleSpec(20000, 1)).Design
	Global(golden, Options{Seed: 1})
	Legalize(golden)
	shuffled := golden.Clone()
	shuffleEqualWidth(shuffled)
	small := designs.Generate(designs.ScaleSpec(10000, 2)).Design
	Global(small, Options{Seed: 2})
	Legalize(small)
	fixtures := []struct {
		name string
		d    *netlist.Design
	}{{"legalized", golden}, {"shuffled", shuffled}, {"10k", small}}
	for _, fx := range fixtures {
		for _, seed := range []int64{1, 2} {
			want := fx.d.Clone()
			wantRes := serialDetailed(want, seed)
			for _, w := range []int{1, 2, 4} {
				d := fx.d.Clone()
				res := Detailed(d, DetailedOptions{Seed: seed, Workers: w})
				if res.Swaps != wantRes.Swaps ||
					math.Float64bits(res.HPWLBefore) != math.Float64bits(wantRes.HPWLBefore) ||
					math.Float64bits(res.HPWLAfter) != math.Float64bits(wantRes.HPWLAfter) {
					t.Fatalf("%s seed %d W=%d: %+v, serial oracle %+v", fx.name, seed, w, res, wantRes)
				}
				for i, inst := range d.Insts {
					if math.Float64bits(inst.X) != math.Float64bits(want.Insts[i].X) ||
						math.Float64bits(inst.Y) != math.Float64bits(want.Insts[i].Y) {
						t.Fatalf("%s seed %d W=%d: instance %d at (%v, %v), serial oracle (%v, %v)",
							fx.name, seed, w, i, inst.X, inst.Y, want.Insts[i].X, want.Insts[i].Y)
					}
				}
			}
			t.Logf("%s seed %d: %d swaps", fx.name, seed, wantRes.Swaps)
		}
	}
}

// shuffleEqualWidth exchanges the positions of consecutive movable core
// cells of equal width, in instance order: a legal but poor placement on
// which Detailed accepts thousands of swaps.
func shuffleEqualWidth(d *netlist.Design) {
	pending := map[float64]*netlist.Instance{}
	for _, inst := range d.Insts {
		if inst.Fixed || inst.Master.Class != netlist.ClassCore {
			continue
		}
		w := inst.Master.Width
		if p := pending[w]; p != nil {
			p.X, inst.X = inst.X, p.X
			p.Y, inst.Y = inst.Y, p.Y
			delete(pending, w)
		} else {
			pending[w] = inst
		}
	}
}

// TestDetailedGoldenDeterministic pins Detailed's output bit for bit — every
// instance position, the swap count and both HPWL totals — on a design with
// the scale generator's 20%-of-cells clock net and >64-pin nets. The hashes
// were recorded with the pointer-walking implementation this one replaced
// (commit 8498bee); no reference implementation is kept in the tree. The
// shuffled case exchanges equal-width neighbours first so that thousands of
// swaps are accepted and the index's live coordinates are exercised; it was
// re-recorded on commit fde76ed at detailedPasses, when the pass count
// stopped being an option.
func TestDetailedGoldenDeterministic(t *testing.T) {
	cases := []struct {
		name    string
		shuffle bool
		opt     DetailedOptions
		swaps   int
		hash    string
	}{
		{"legalized", false, DetailedOptions{Seed: 1}, 131,
			"d7ef571be8d44dd8a0c04dc11318e073d5f981c423568d15fbb3513d48172634"},
		{"shuffled", true, DetailedOptions{Seed: 2}, 9968,
			"833a44a5ab4d95051ce57fa0245b10038ab50756f8f76644bf6a44fda4dc22b1"},
	}
	d0 := designs.Generate(designs.ScaleSpec(20000, 1)).Design
	Global(d0, Options{Seed: 1})
	Legalize(d0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := d0.Clone()
			if tc.shuffle {
				shuffleEqualWidth(d)
			}
			res := Detailed(d, tc.opt)
			h := sha256.New()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			for _, inst := range d.Insts {
				put(math.Float64bits(inst.X))
				put(math.Float64bits(inst.Y))
			}
			put(uint64(res.Swaps))
			put(math.Float64bits(res.HPWLBefore))
			put(math.Float64bits(res.HPWLAfter))
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.hash || res.Swaps != tc.swaps {
				t.Fatalf("swaps %d hash %s, want %d %s (HPWL %v -> %v)",
					res.Swaps, got, tc.swaps, tc.hash, res.HPWLBefore, res.HPWLAfter)
			}
		})
	}
}

// TestDetailedSpotCacheExact is the oracle of the spot cache on the shuffled
// fixture of TestDetailedGoldenDeterministic, where thousands of swaps are
// accepted: after every pass, each cell whose cached optimal spot the
// invalidation rule still trusts must hold, bit for bit, what a fresh
// optimalSpot computes on the current positions, and what the median of
// two sorted coordinate lists gathered from the design itself gives.
func TestDetailedSpotCacheExact(t *testing.T) {
	d := designs.Generate(designs.ScaleSpec(20000, 1)).Design
	Global(d, Options{Seed: 1})
	Legalize(d)
	shuffleEqualWidth(d)
	dp := newDetailer(d, DetailedOptions{Seed: 2})
	cm := d.Compact()
	var pos netlist.Positions
	sortedSpot := func(id int32) (float64, float64, bool) {
		var xs, ys []float64
		for j := cm.InstStart[id]; j < cm.InstStart[id+1]; j++ {
			n := cm.InstNets[j]
			if cm.NumNetPins(int(n)) > detailMaxNetPins {
				continue
			}
			for k := cm.NetStart[n]; k < cm.NetStart[n+1]; k++ {
				if cm.PinInst[k] != id {
					x, y := cm.PinXY(&pos, k)
					xs, ys = append(xs, x), append(ys, y)
				}
			}
		}
		if len(xs) == 0 {
			return 0, 0, false
		}
		sort.Float64s(xs)
		sort.Float64s(ys)
		return xs[len(xs)/2], ys[len(ys)/2], true
	}
	same := func(x1, y1 float64, ok1 bool, x2, y2 float64, ok2 bool) bool {
		return ok1 == ok2 && math.Float64bits(x1) == math.Float64bits(x2) && math.Float64bits(y1) == math.Float64bits(y2)
	}
	swaps := 0
	for pass := 0; pass < detailedPasses; pass++ {
		swaps += dp.pass()
		pos.Gather(d)
		trusted, stale := 0, 0
		for ci, id := range dp.cells {
			if !dp.spotFresh(ci) {
				stale++
				continue
			}
			trusted++
			x, y, ok := dp.spotX[ci], dp.spotY[ci], dp.spotOK[ci]
			if fx, fy, fok := dp.optimalSpot(id, &dp.medians[0]); !same(x, y, ok, fx, fy, fok) {
				t.Fatalf("pass %d cell %d: cached spot (%v, %v, %v), fresh optimalSpot (%v, %v, %v)", pass, id, x, y, ok, fx, fy, fok)
			}
			if sx, sy, sok := sortedSpot(id); !same(x, y, ok, sx, sy, sok) {
				t.Fatalf("pass %d cell %d: cached spot (%v, %v, %v), sorted median (%v, %v, %v)", pass, id, x, y, ok, sx, sy, sok)
			}
		}
		if trusted == 0 || stale == 0 {
			t.Fatalf("pass %d: %d trusted and %d stale spots, want both kinds checked", pass, trusted, stale)
		}
	}
	if swaps != 9968 {
		t.Fatalf("%d swaps, want the golden 9968", swaps)
	}
}

// TestSelectKthMatchesSort holds the selection kernel to the value a sort
// puts at index k, for every k of short lists dense in ties.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(1+n/3)) * 0.5
		}
		want := append([]float64(nil), a...)
		sort.Float64s(want)
		for k := range a {
			b := append([]float64(nil), a...)
			if got := selectKth(b, k); got != want[k] {
				t.Fatalf("list %v, k %d: selectKth %v, sort %v", a, k, got, want[k])
			}
		}
	}
}
