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

// referenceAssemble is the net-by-net assembly the flat CSR build replaced,
// kept here as the order of additions it has to reproduce: per net in
// ascending order, every pin to the net's min pin then to its max pin, each
// spring appended to its two rows' lists as it is met; anchors last.
func referenceAssemble(p *placer, xAxis bool, spreadW float64) refSystem {
	n := len(p.movable)
	r := refSystem{diag: make([]float64, n), rhs: make([]float64, n), off: make([][]refEntry, n)}
	pos, fix, anch, seed := p.x, p.pinCX, p.anchX, p.seedX
	if !xAxis {
		pos, fix, anch, seed = p.y, p.pinCY, p.anchY, p.seedY
	}
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
			r.diag[vi] += p.opt.AnchorWeight
			r.rhs[vi] += p.opt.AnchorWeight * seed[vi]
		}
	}
	return r
}

// cornerCaseDesign is a hand-built design holding the shapes the slot layout
// has to get right: n0's three cells sit on one point (min and max are the
// same pin, the net fills its whole 2(P-1) slot); n1 has two pins on one
// cell; n2 touches only a fixed cell and ports, one of them undeclared; n3 is
// an ordinary mixed net; n4 is one pin above maxNetPins and stays out of the
// model; n5 has a single pin.
func cornerCaseDesign(t *testing.T) *netlist.Design {
	t.Helper()
	lib := netlist.NewLibrary("corner_lib")
	m := &netlist.Master{Name: "c", Class: netlist.ClassCore, Width: 1, Height: 1}
	if err := lib.AddMaster(m); err != nil {
		t.Fatal(err)
	}
	d := netlist.NewDesign("corner", lib)
	d.Core = netlist.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}
	at := [][2]float64{{5, 5}, {5, 5}, {5, 5}, {12, 30}, {31, 7}, {20, 20}, {8, 33}}
	for i, xy := range at {
		inst, err := d.AddInstance("i"+strconv.Itoa(i), m)
		if err != nil {
			t.Fatal(err)
		}
		inst.X, inst.Y, inst.Placed = xy[0], xy[1], true
	}
	d.Insts[5].Fixed = true
	for i, xy := range [][2]float64{{0, 17}, {40, 3}} {
		port, err := d.AddPort("p"+strconv.Itoa(i), netlist.DirInput)
		if err != nil {
			t.Fatal(err)
		}
		port.X, port.Y, port.Placed = xy[0], xy[1], true
	}
	cell := func(i int) netlist.PinRef { return netlist.PinRef{Inst: i, Pin: "p"} }
	port := func(name string) netlist.PinRef { return netlist.PinRef{Inst: -1, Pin: name} }
	huge := make([]netlist.PinRef, maxNetPins+1)
	for i := range huge {
		huge[i] = cell(i % len(at))
	}
	for i, pins := range [][]netlist.PinRef{
		{cell(0), cell(1), cell(2)},
		{cell(3), cell(3), cell(4)},
		{cell(5), port("p0"), port("p1"), port("undeclared")},
		{cell(0), cell(3), cell(5), cell(6), port("p1")},
		huge,
		{cell(6)},
	} {
		net, err := d.AddNet("n" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		net.Weight = 1 + 0.5*float64(i)
		for _, ref := range pins {
			d.Connect(net, ref)
		}
	}
	return d
}

// TestAssembleMatchesReference checks the flat assembly against the
// net-by-net reference on both axes, on the one system the axes share at one
// worker and on the two they own from two up: same offStart, the same
// (column, weight bits) sequence in every row, the same diag and rhs bits.
func TestAssembleMatchesReference(t *testing.T) {
	check := func(t *testing.T, p *placer, spreadW float64) {
		t.Helper()
		for axis, xAxis := range []bool{true, false} {
			ref := referenceAssemble(p, xAxis, spreadW)
			s := p.axes[axis]
			pos, fix, anch, seed := p.x, p.pinCX, p.anchX, p.seedX
			if !xAxis {
				pos, fix, anch, seed = p.y, p.pinCY, p.anchY, p.seedY
			}
			s.assemble(p, pos, fix, anch, seed, spreadW)
			if s.offStart[0] != 0 {
				t.Fatalf("axis %d: offStart[0] = %d", axis, s.offStart[0])
			}
			nnz := 0
			for i := range ref.diag {
				row := s.offCol[s.offStart[i]:s.offStart[i+1]]
				rowW := s.offW[s.offStart[i]:s.offStart[i+1]]
				if len(row) != len(ref.off[i]) {
					t.Fatalf("axis %d row %d: %d entries, reference %d", axis, i, len(row), len(ref.off[i]))
				}
				for k, col := range row {
					if want := ref.off[i][k]; int(col) != want.col || math.Float64bits(rowW[k]) != math.Float64bits(want.w) {
						t.Fatalf("axis %d row %d entry %d: (%d, %v), reference (%d, %v)", axis, i, k, col, rowW[k], want.col, want.w)
					}
				}
				if math.Float64bits(s.diag[i]) != math.Float64bits(ref.diag[i]) ||
					math.Float64bits(s.rhs[i]) != math.Float64bits(ref.rhs[i]) {
					t.Fatalf("axis %d row %d: diag %v rhs %v, reference %v %v", axis, i, s.diag[i], s.rhs[i], ref.diag[i], ref.rhs[i])
				}
				nnz += len(row)
			}
			if nnz == 0 || nnz > len(s.offCol) {
				t.Fatalf("axis %d: %d entries in a CSR of capacity %d", axis, nnz, len(s.offCol))
			}
		}
	}
	for _, w := range []int{1, 4} {
		t.Run("tiny/W"+strconv.Itoa(w), func(t *testing.T) {
			d := designs.Generate(designs.TinySpec(41)).Design
			check(t, roundPlacer(d, Options{Seed: 1, Workers: w}, 2), spreadWeight)
		})
		t.Run("corner-cases/W"+strconv.Itoa(w), func(t *testing.T) {
			p := roundPlacer(cornerCaseDesign(t), Options{Incremental: true, AnchorWeight: 0.1, Workers: w}, 0)
			if got, want := len(p.activeNets), 4; got != want {
				t.Fatalf("%d active nets, want %d", got, want)
			}
			check(t, p, 0)
			// n0's cells coincide, so the slot bound is tight: all 2(P-1) = 4
			// actions are real springs, none the spare no-op.
			for k, a := range p.axes[0].acts[p.actStart[0]:p.actStart[1]] {
				if a.vi < 0 || a.vj < 0 || a.vi == a.vj {
					t.Fatalf("coincident net: action %d is not a spring: %+v", k, a)
				}
			}
			check(t, p, spreadWeight)
		})
	}
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
