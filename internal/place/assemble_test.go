package place

import (
	"math"
	"strconv"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

// refEntry is one off-diagonal entry of the reference assembly.
type refEntry struct {
	col int
	w   float64
}

// refSystem is the reference assembly's result: diag, rhs and one entry list
// per row.
type refSystem struct {
	diag, rhs []float64
	off       [][]refEntry
}

// addSpring adds a two-point quadratic term w*(a-b)^2 where each endpoint is
// a variable (index >= 0) or a constant coordinate.
func (r *refSystem) addSpring(vi, vj int, ci, cj, w float64) {
	switch {
	case vi >= 0 && vj >= 0:
		if vi == vj {
			return
		}
		r.diag[vi] += w
		r.diag[vj] += w
		r.off[vi] = append(r.off[vi], refEntry{vj, w})
		r.off[vj] = append(r.off[vj], refEntry{vi, w})
	case vi >= 0:
		r.diag[vi] += w
		r.rhs[vi] += w * cj
	case vj >= 0:
		r.diag[vj] += w
		r.rhs[vj] += w * ci
	}
}

// referenceAssemble is the net-by-net assembly into per-row entry lists that
// the spring list replaced, kept here as the order of additions it has to
// reproduce: per net in ascending order, every pin to the net's min pin then
// to its max pin, each spring appended to its two rows' lists as it is met;
// anchors last.
func referenceAssemble(p *placer, xAxis bool, spreadW float64) refSystem {
	n := len(p.movable)
	r := refSystem{diag: make([]float64, n), rhs: make([]float64, n), off: make([][]refEntry, n)}
	pos, fix, anch, seed := axisArgs(p, xAxis)
	type pin struct {
		c  float64
		vi int
	}
	for ni := range p.d.Nets {
		lo, hi := int(p.cm.NetStart[ni]), int(p.cm.NetStart[ni+1])
		if hi-lo < 2 || hi-lo > maxNetPins {
			continue
		}
		var pins []pin
		minI, maxI := 0, 0
		for k := lo; k < hi; k++ {
			vi := int(p.pinVar[k])
			c := fix[k]
			if vi >= 0 {
				c = pos[vi]
			}
			pins = append(pins, pin{c, vi})
			if c < pins[minI].c {
				minI = len(pins) - 1
			}
			if c > pins[maxI].c {
				maxI = len(pins) - 1
			}
		}
		for _, bi := range [2]int{minI, maxI} {
			b := pins[bi]
			for i, q := range pins {
				if i == bi || (bi == maxI && i == minI) {
					continue
				}
				dist := math.Abs(q.c - b.c)
				if dist < 1e-3 {
					dist = 1e-3
				}
				r.addSpring(q.vi, b.vi, q.c, b.c, p.netW[ni]*2/(float64(len(pins)-1)*dist))
			}
		}
	}
	for vi := 0; vi < n; vi++ {
		if spreadW > 0 {
			r.diag[vi] += spreadW
			r.rhs[vi] += spreadW * anch[vi]
		}
		if p.opt.Incremental {
			r.diag[vi] += incrementalAnchorWeight
			r.rhs[vi] += incrementalAnchorWeight * seed[vi]
		}
	}
	return r
}

// cornerCaseDesign is a hand-built design holding the shapes the assembly
// has to get right: n0's three cells sit on one point (min and max are the
// same pin, the net emits all 2(P-1) springs of its bound); n1 has two pins
// on one cell; n2 touches only a fixed cell and ports; n3 is an ordinary mixed net; n4 is one pin above maxNetPins and stays out of
// the model; n5 has a single pin.
func cornerCaseDesign(t *testing.T) *netlist.Design {
	t.Helper()
	lib := netlist.NewLibrary("corner_lib")
	m := &netlist.Master{Name: "c", Class: netlist.ClassCore, Width: 1, Height: 1}
	m.AddPin(netlist.MasterPin{Name: "p"})
	if err := lib.AddMaster(m); err != nil {
		t.Fatal(err)
	}
	d := netlist.NewDesign("corner", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}
	at := [][2]float64{{5, 5}, {5, 5}, {5, 5}, {12, 30}, {31, 7}, {20, 20}, {8, 33}}
	for i, xy := range at {
		inst := d.AddInstance("i"+strconv.Itoa(i), m)
		inst.X, inst.Y, inst.Placed = xy[0], xy[1], true
	}
	d.Insts[5].Fixed = true
	for i, xy := range [][2]float64{{0, 17}, {40, 3}} {
		port := d.AddPort("p"+strconv.Itoa(i), netlist.DirInput)
		port.X, port.Y, port.Placed = xy[0], xy[1], true
	}
	cell := func(i int) netlist.PinRef { return pinRef(d, i, "p") }
	port := func(name string) netlist.PinRef { return pinRef(d, -1, name) }
	huge := make([]netlist.PinRef, maxNetPins+1)
	for i := range huge {
		huge[i] = cell(i % len(at))
	}
	for i, pins := range [][]netlist.PinRef{
		{cell(0), cell(1), cell(2)},
		{cell(3), cell(3), cell(4)},
		{cell(5), port("p0"), port("p1")},
		{cell(0), cell(3), cell(5), cell(6), port("p1")},
		huge,
		{cell(6)},
	} {
		net := d.AddNet("n" + strconv.Itoa(i))
		net.Weight = 1 + 0.5*float64(i)
		for _, ref := range pins {
			d.Connect(net, ref)
		}
	}
	return d
}

// axisArgs returns the position, constant-pin, anchor and seed vectors of one
// axis, as solve picks them.
func axisArgs(p *placer, xAxis bool) (pos, fix, anch, seed []float64) {
	if xAxis {
		return p.x, p.pinCX, p.anchX, p.seedX
	}
	return p.y, p.pinCY, p.anchY, p.seedY
}

// TestAssembleMatchesReference checks the spring-list assembly against the
// net-by-net reference on both axes, on the one system the axes share at one
// worker and on the two they own from two up: replaying the list into per-row
// lists gives the reference's (column, weight bits) sequence in every row, and
// diag and rhs have the same bits.
func TestAssembleMatchesReference(t *testing.T) {
	check := func(t *testing.T, p *placer, spreadW float64) {
		t.Helper()
		for axis, xAxis := range []bool{true, false} {
			ref := referenceAssemble(p, xAxis, spreadW)
			s := p.axes[axis]
			pos, fix, anch, seed := axisArgs(p, xAxis)
			s.assemble(p, pos, fix, anch, seed, spreadW)
			if len(s.springs) == 0 || cap(s.springs) != p.springCap {
				t.Fatalf("axis %d: %d springs in a list of capacity %d, run bound %d", axis, len(s.springs), cap(s.springs), p.springCap)
			}
			rows := make([][]refEntry, len(ref.diag))
			for _, sp := range s.springs {
				rows[sp.vi] = append(rows[sp.vi], refEntry{int(sp.vj), sp.w})
				rows[sp.vj] = append(rows[sp.vj], refEntry{int(sp.vi), sp.w})
			}
			for i := range ref.diag {
				if len(rows[i]) != len(ref.off[i]) {
					t.Fatalf("axis %d row %d: %d entries, reference %d", axis, i, len(rows[i]), len(ref.off[i]))
				}
				for k, got := range rows[i] {
					if want := ref.off[i][k]; got.col != want.col || math.Float64bits(got.w) != math.Float64bits(want.w) {
						t.Fatalf("axis %d row %d entry %d: (%d, %v), reference (%d, %v)", axis, i, k, got.col, got.w, want.col, want.w)
					}
				}
				if math.Float64bits(s.diag[i]) != math.Float64bits(ref.diag[i]) ||
					math.Float64bits(s.rhs[i]) != math.Float64bits(ref.rhs[i]) {
					t.Fatalf("axis %d row %d: diag %v rhs %v, reference %v %v", axis, i, s.diag[i], s.rhs[i], ref.diag[i], ref.rhs[i])
				}
			}
		}
	}
	for _, w := range []int{1, 4} {
		t.Run("tiny/W"+strconv.Itoa(w), func(t *testing.T) {
			d := designs.Generate(designs.TinySpec(41)).Design
			check(t, roundPlacer(d, Options{Seed: 1, Workers: w}, 2), spreadWeight)
		})
		t.Run("corner-cases/W"+strconv.Itoa(w), func(t *testing.T) {
			p := roundPlacer(cornerCaseDesign(t), Options{Incremental: true, Workers: w}, 0)
			if got, want := len(p.activeNets), 4; got != want {
				t.Fatalf("%d active nets, want %d", got, want)
			}
			check(t, p, 0)
			// n0's cells coincide, so the capacity bound is tight for it: the
			// list opens with all 2(P-1) = 4 of its springs, among cells 0..2.
			for k, sp := range p.axes[0].springs[:4] {
				if sp.vi > 2 || sp.vj > 2 {
					t.Fatalf("coincident net: spring %d is not among its cells: %+v", k, sp)
				}
			}
			check(t, p, spreadWeight)
		})
	}
}

// TestMulADotMatchesReference checks the scatter product against the
// reference's row-by-row one — diag[i]*d[i] minus the row's entries in list
// order, the dot product in ascending row order — bit for bit, on a vector
// with negative, zero and denormal-small entries.
func TestMulADotMatchesReference(t *testing.T) {
	check := func(t *testing.T, p *placer) {
		t.Helper()
		n := len(p.movable)
		d, ax := make([]float64, n), make([]float64, n)
		for i := range d {
			switch i % 4 {
			case 0:
				d[i] = -1.5 - float64(i)/7
			case 1:
				d[i] = 0
			case 2:
				d[i] = 3e-310 * float64(i)
			default:
				d[i] = 0.25 + float64(i%97)
			}
		}
		for axis, xAxis := range []bool{true, false} {
			ref := referenceAssemble(p, xAxis, spreadWeight)
			s := p.axes[axis]
			pos, fix, anch, seed := axisArgs(p, xAxis)
			s.assemble(p, pos, fix, anch, seed, spreadWeight)
			for i := range ax {
				ax[i] = math.NaN() // the product must overwrite, not accumulate
			}
			dot := s.mulADot(d, ax)
			var want float64
			for i := range d {
				row := ref.diag[i] * d[i]
				for _, e := range ref.off[i] {
					row -= e.w * d[e.col]
				}
				if math.Float64bits(ax[i]) != math.Float64bits(row) {
					t.Fatalf("axis %d row %d: ax = %v, reference %v", axis, i, ax[i], row)
				}
				want += d[i] * row
			}
			if math.Float64bits(dot) != math.Float64bits(want) {
				t.Fatalf("axis %d: dot = %v, reference %v", axis, dot, want)
			}
		}
	}
	t.Run("tiny", func(t *testing.T) {
		check(t, roundPlacer(designs.Generate(designs.TinySpec(41)).Design, Options{Seed: 1}, 2))
	})
	t.Run("corner-cases", func(t *testing.T) {
		check(t, roundPlacer(cornerCaseDesign(t), Options{Incremental: true}, 0))
	})
	t.Run("6.5k", func(t *testing.T) {
		check(t, roundPlacer(designs.Generate(designs.ScaleSpec(6500, 3)).Design, Options{Seed: 1}, 2))
	})
}

// TestSolveRoundAllocFree asserts the steady-state contract of a round: both
// axis solves — assembly and CG — allocate nothing at one worker, and with
// the axes side by side only what par's one fork costs, whatever the design
// size.
func TestSolveRoundAllocFree(t *testing.T) {
	d := designs.Generate(designs.TinySpec(42)).Design
	p := roundPlacer(d, Options{Seed: 1, Workers: 1}, 2)
	if allocs := testing.AllocsPerRun(3, func() { p.solveRound(spreadWeight) }); allocs != 0 {
		t.Fatalf("one round at W=1 allocates %v times, want 0", allocs)
	}
	p = roundPlacer(d, Options{Seed: 1, Workers: 2}, 2)
	if allocs := testing.AllocsPerRun(3, func() { p.solveRound(spreadWeight) }); allocs > 16 {
		t.Fatalf("one round at W=2 allocates %v times, want only par.Blocks' fork", allocs)
	}
}

// pinRef resolves a fixture pin by name, a port when inst < 0; fixtures
// name only declared pins.
func pinRef(d *netlist.Design, inst int, name string) netlist.PinRef {
	if inst < 0 {
		for i, p := range d.Ports {
			if p.Name == name {
				return netlist.PinRef{Inst: -1, Pin: i}
			}
		}
		panic("no port " + name)
	}
	ref, err := d.PinRefOf(inst, name)
	if err != nil {
		panic(err)
	}
	return ref
}
