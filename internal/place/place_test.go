package place

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

func tinyPlaced(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	b := designs.Generate(designs.TinySpec(seed))
	return b.Design
}

func scatter(d *netlist.Design, seed int64) {
	// Deterministic pseudo-random scatter for baselines.
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		s = s*2862933555777941757 + 3037000493
		return float64(s>>11) / float64(1<<53)
	}
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		inst.X = d.Core.X0 + next()*(d.Core.W()-inst.Master.Width)
		inst.Y = d.Core.Y0 + next()*(d.Core.H()-inst.Master.Height)
		inst.Placed = true
	}
}

func TestGlobalBeatsRandomScatter(t *testing.T) {
	d := tinyPlaced(t, 21)
	ref := d.Clone()
	scatter(ref, 1)
	randomHPWL := ref.HPWL()
	res := Global(d, Options{Seed: 1})
	if res.HPWL <= 0 {
		t.Fatal("zero HPWL")
	}
	if res.HPWL > 0.7*randomHPWL {
		t.Fatalf("placed HPWL %v not much better than random %v", res.HPWL, randomHPWL)
	}
	if res.Overflow > 0.5 {
		t.Fatalf("overflow=%v too high", res.Overflow)
	}
}

func TestAllCellsInsideCore(t *testing.T) {
	d := tinyPlaced(t, 22)
	Global(d, Options{Seed: 2})
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		if !inst.Placed {
			t.Fatalf("instance %s unplaced", inst.Name)
		}
		if inst.X < d.Core.X0-1e-6 || inst.X+inst.Master.Width > d.Core.X1+1e-6 ||
			inst.Y < d.Core.Y0-1e-6 || inst.Y+inst.Master.Height > d.Core.Y1+1e-6 {
			t.Fatalf("instance %s outside core at (%v,%v)", inst.Name, inst.X, inst.Y)
		}
	}
}

func TestSpreadingReducesClumping(t *testing.T) {
	d := tinyPlaced(t, 23)
	res := Global(d, Options{Seed: 3})
	// Measure max local density over a coarse grid.
	const n = 6
	var binArea [n][n]float64
	bw, bh := d.Core.W()/n, d.Core.H()/n
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		i := int((inst.CenterX() - d.Core.X0) / bw)
		j := int((inst.CenterY() - d.Core.Y0) / bh)
		if i >= n {
			i = n - 1
		}
		if j >= n {
			j = n - 1
		}
		if i < 0 {
			i = 0
		}
		if j < 0 {
			j = 0
		}
		binArea[i][j] += inst.Master.Area()
	}
	var maxUtil float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u := binArea[i][j] / (bw * bh)
			if u > maxUtil {
				maxUtil = u
			}
		}
	}
	if maxUtil > 1.6 {
		t.Fatalf("max bin utilization %v: spreading failed (overflow=%v)", maxUtil, res.Overflow)
	}
}

func TestIncrementalStaysNearSeed(t *testing.T) {
	d := tinyPlaced(t, 24)
	Global(d, Options{Seed: 4})
	// Record seed positions, then rerun incrementally: cells should stay
	// close to the seed (the whole point of seeded placement).
	seedX := make([]float64, len(d.Insts))
	seedY := make([]float64, len(d.Insts))
	for i, inst := range d.Insts {
		seedX[i], seedY[i] = inst.CenterX(), inst.CenterY()
	}
	Global(d, Options{Seed: 4, Incremental: true, Iterations: 4})
	var totalMove float64
	for i, inst := range d.Insts {
		totalMove += math.Abs(inst.CenterX()-seedX[i]) + math.Abs(inst.CenterY()-seedY[i])
	}
	avgMove := totalMove / float64(len(d.Insts))
	if avgMove > d.Core.W()*0.25 {
		t.Fatalf("incremental placement moved cells too far: avg %v", avgMove)
	}
}

func TestIncrementalImprovesSeededHPWL(t *testing.T) {
	d := tinyPlaced(t, 25)
	// Seed: everything at core center (like cluster-center seeding).
	cx, cy := (d.Core.X0+d.Core.X1)/2, (d.Core.Y0+d.Core.Y1)/2
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		inst.X, inst.Y, inst.Placed = cx, cy, true
	}
	res := Global(d, Options{Seed: 5, Incremental: true})
	if res.Overflow > 0.5 {
		t.Fatalf("incremental run failed to spread: overflow %v", res.Overflow)
	}
}

// quadrantRegions gives the first quarter of d's movable instances the core's
// lower-left 40% as their region, the way flow.buildRegions hands every
// member of a cluster the cluster's rectangle.
func quadrantRegions(d *netlist.Design) (map[int]netlist.Rect, netlist.Rect) {
	region := netlist.Rect{
		X0: d.Core.X0, Y0: d.Core.Y0,
		X1: d.Core.X0 + d.Core.W()*0.4, Y1: d.Core.Y0 + d.Core.H()*0.4,
	}
	regions := map[int]netlist.Rect{}
	for i := 0; i < len(d.Insts)/4; i++ {
		if !d.Insts[i].Fixed {
			regions[i] = region
		}
	}
	return regions, region
}

// TestRegionsSoftAndBrief pins the one region semantics the flow uses
// (Algorithm 1 lines 18-20): regions steer an incremental run's first
// regionRounds rounds and are then removed, so a region cell is pulled toward
// its region yet may end outside it. The options that once selected other
// semantics are inert: setting them leaves every position bit-identical.
func TestRegionsSoftAndBrief(t *testing.T) {
	seeded := tinyPlaced(t, 26)
	Global(seeded, Options{Seed: 6})
	regions, region := quadrantRegions(seeded)
	// outside sums the region cells' distances to their region (0 inside)
	// and counts the cells with a positive one.
	outside := func(d *netlist.Design) (float64, int) {
		var dist float64
		n := 0
		for id := range regions {
			inst := d.Insts[id]
			cx, cy := inst.CenterX(), inst.CenterY()
			dx := math.Max(0, math.Max(region.X0-cx, cx-region.X1))
			dy := math.Max(0, math.Max(region.Y0-cy, cy-region.Y1))
			if dx+dy > 0 {
				dist += dx + dy
				n++
			}
		}
		return dist, n
	}
	run := func(opt Options) *netlist.Design {
		d := seeded.Clone()
		opt.Seed, opt.Incremental = 6, true
		Global(d, opt)
		return d
	}

	free := run(Options{Iterations: regionRounds})
	guided := run(Options{Iterations: regionRounds, Regions: regions})
	gd, _ := outside(guided)
	fd, _ := outside(free)
	if gd >= fd {
		t.Fatalf("after %d rounds region cells are %v um from their region guided, %v unguided",
			regionRounds, gd, fd)
	}
	ref := run(Options{Regions: regions})
	if _, n := outside(ref); n == 0 {
		t.Fatalf("all %d region cells ended inside their region: regions were not soft", len(regions))
	}

	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"SoftRegions false", Options{SoftRegions: false}},
		{"SoftRegions true", Options{SoftRegions: true}},
		{"RegionIterations 0", Options{RegionIterations: 0}},
		{"RegionIterations 5", Options{RegionIterations: 5}},
		{"AnchorWeight 0.5", Options{AnchorWeight: 0.5}},
	} {
		tc.opt.Regions = regions
		d := run(tc.opt)
		for i, inst := range d.Insts {
			if math.Float64bits(inst.X) != math.Float64bits(ref.Insts[i].X) ||
				math.Float64bits(inst.Y) != math.Float64bits(ref.Insts[i].Y) {
				t.Fatalf("%s: instance %s at (%v,%v), want (%v,%v)",
					tc.name, inst.Name, inst.X, inst.Y, ref.Insts[i].X, ref.Insts[i].Y)
			}
		}
	}
}

func TestFixedCellsDoNotMove(t *testing.T) {
	spec := designs.TinySpec(27)
	spec.Macros = 2
	b := designs.Generate(spec)
	d := b.Design
	type pos struct{ x, y float64 }
	fixed := map[int]pos{}
	for _, inst := range d.Insts {
		if inst.Fixed {
			fixed[inst.ID] = pos{inst.X, inst.Y}
		}
	}
	if len(fixed) == 0 {
		t.Fatal("expected fixed macros")
	}
	Global(d, Options{Seed: 7})
	for id, p := range fixed {
		if d.Insts[id].X != p.x || d.Insts[id].Y != p.y {
			t.Fatal("fixed instance moved")
		}
	}
}

func TestLegalize(t *testing.T) {
	d := tinyPlaced(t, 28)
	Global(d, Options{Seed: 8})
	Legalize(d)
	rep := CheckLegal(d)
	if rep.OffRow != 0 || rep.OffSite != 0 {
		t.Fatalf("off-grid cells: %+v", rep)
	}
	if rep.Overlaps != 0 {
		t.Fatalf("overlapping cells: %+v", rep)
	}
	if rep.Outside != 0 {
		t.Fatalf("cells outside core: %+v", rep)
	}
}

func TestLegalizeKeepsHPWLReasonable(t *testing.T) {
	d := tinyPlaced(t, 29)
	res := Global(d, Options{Seed: 9})
	before := res.HPWL
	Legalize(d)
	after := d.HPWL()
	if after > 1.8*before {
		t.Fatalf("legalization exploded HPWL: %v -> %v", before, after)
	}
}

func TestDeterministicPlacement(t *testing.T) {
	d1 := tinyPlaced(t, 30)
	d2 := tinyPlaced(t, 30)
	r1 := Global(d1, Options{Seed: 11})
	r2 := Global(d2, Options{Seed: 11})
	if math.Abs(r1.HPWL-r2.HPWL) > 1e-9 {
		t.Fatalf("placement not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

func TestEmptyDesign(t *testing.T) {
	lib := designs.Lib()
	d := netlist.NewDesign("empty", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	res := Global(d, Options{})
	if res.HPWL != 0 {
		t.Fatalf("empty design HPWL=%v", res.HPWL)
	}
}

func TestClampHelper(t *testing.T) {
	if clamp(5, 0, 10) != 5 || clamp(-1, 0, 10) != 0 || clamp(11, 0, 10) != 10 {
		t.Fatal("clamp broken")
	}
	if got := clamp(3, 8, 4); got != 6 {
		t.Fatalf("inverted bounds should give midpoint, got %v", got)
	}
}

func TestBinGridOverflow(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}
	g := newBinGrid(core, 64, 1.0)
	// Pile area into one corner bin.
	for i := 0; i < 50; i++ {
		g.deposit(1, 1, 10)
	}
	if g.overflow() <= 0 {
		t.Fatal("expected overflow")
	}
	g.clear()
	if g.overflow() != 0 {
		t.Fatal("clear failed")
	}
}

func TestBlockAreaReducesCapacity(t *testing.T) {
	core := netlist.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}
	g := newBinGrid(core, 64, 1.0)
	before := g.capacity[0]
	g.blockArea(0, 0, 5, 5)
	if g.capacity[0] >= before {
		t.Fatal("blockage did not reduce capacity")
	}
}

// pairOverlap is the brute-force oracle for RemoveOverlaps: the total
// pairwise overlap area between placed cells.
func pairOverlap(d *netlist.Design) float64 {
	var total float64
	for i, a := range d.Insts {
		for _, b := range d.Insts[i+1:] {
			ox := overlap1d(a.X, a.X+a.Master.Width, b.X, b.X+b.Master.Width)
			oy := overlap1d(a.Y, a.Y+a.Master.Height, b.Y, b.Y+b.Master.Height)
			total += ox * oy
		}
	}
	return total
}

func TestRemoveOverlaps(t *testing.T) {
	lib := designs.Lib()
	d := netlist.NewDesign("fp", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	// Big synthetic blocks, all piled at the same spot.
	for i := 0; i < 6; i++ {
		m := &netlist.Master{Name: "BLK" + string(rune('A'+i)), Width: 30, Height: 25}
		m.AddPin(netlist.MasterPin{Name: "P", Dir: netlist.DirInout})
		if err := lib.AddMaster(m); err != nil {
			t.Fatal(err)
		}
		inst := d.AddInstance("b"+string(rune('a'+i)), m)
		inst.X, inst.Y, inst.Placed = 35, 35, true
	}
	if pairOverlap(d) == 0 {
		t.Fatal("expected initial overlap")
	}
	RemoveOverlaps(d)
	if got := pairOverlap(d); got > 1e-6 {
		t.Fatalf("overlap remains: %v", got)
	}
	for _, inst := range d.Insts {
		if inst.X < d.Core.X0-1e-9 || inst.X+inst.Master.Width > d.Core.X1+1e-9 ||
			inst.Y < d.Core.Y0-1e-9 || inst.Y+inst.Master.Height > d.Core.Y1+1e-9 {
			t.Fatalf("cell %s outside core", inst.Name)
		}
	}
}

func TestRemoveOverlapsRespectsFixed(t *testing.T) {
	lib := designs.Lib()
	d := netlist.NewDesign("fp2", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 60, Y1: 60}
	m := &netlist.Master{Name: "BLKF", Width: 20, Height: 20}
	m.AddPin(netlist.MasterPin{Name: "P", Dir: netlist.DirInout})
	if err := lib.AddMaster(m); err != nil {
		t.Fatal(err)
	}
	fixed := d.AddInstance("fix", m)
	fixed.X, fixed.Y, fixed.Placed, fixed.Fixed = 20, 20, true, true
	mov := d.AddInstance("mov", m)
	mov.X, mov.Y, mov.Placed = 21, 21, true
	RemoveOverlaps(d)
	if fixed.X != 20 || fixed.Y != 20 {
		t.Fatal("fixed cell moved")
	}
	if pairOverlap(d) > 1e-6 {
		t.Fatal("overlap with fixed cell remains")
	}
}

func TestPropertyRemoveOverlapsAlwaysLegal(t *testing.T) {
	// Random piles of mixed-size blocks must come out overlap-free whenever
	// the core has room.
	for seed := int64(0); seed < 6; seed++ {
		lib := netlist.NewLibrary("fpq")
		d := netlist.NewDesign("fpq", lib)
		d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 120, Y1: 120}
		s := uint64(seed)*6364136223846793005 + 1442695040888963407
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / float64(1<<53)
		}
		for i := 0; i < 12; i++ {
			m := &netlist.Master{
				Name:   "B" + string(rune('A'+i)),
				Width:  8 + next()*18,
				Height: 8 + next()*18,
			}
			m.AddPin(netlist.MasterPin{Name: "P", Dir: netlist.DirInout})
			if err := lib.AddMaster(m); err != nil {
				t.Fatal(err)
			}
			inst := d.AddInstance("b"+string(rune('a'+i)), m)
			inst.X = next() * 40
			inst.Y = next() * 40
			inst.Placed = true
		}
		RemoveOverlaps(d)
		if ov := pairOverlap(d); ov > 1e-6 {
			t.Fatalf("seed %d: overlap %v remains", seed, ov)
		}
	}
}
