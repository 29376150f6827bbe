package place

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
	res := Detailed(d, DetailedOptions{Seed: 2, Passes: 3})
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
	d := netlist.NewDesign("empty-dp", lib)
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
// arrays, a full pass — index rebuild and every tried swap — allocates
// nothing.
func TestDetailedPassAllocFree(t *testing.T) {
	d := designs.Generate(designs.ScaleSpec(5000, 1)).Design
	Global(d, Options{Seed: 1})
	Legalize(d)
	dp := newDetailer(d, DetailedOptions{Seed: 1}.withDefaults())
	if allocs := testing.AllocsPerRun(2, func() { dp.pass() }); allocs != 0 {
		t.Fatalf("a detailed-placement pass allocates %v times, want 0", allocs)
	}
}

// TestDetailedGoldenDeterministic pins Detailed's output bit for bit — every
// instance position, the swap count and both HPWL totals — on a design with
// the scale generator's 20%-of-cells clock net and >64-pin nets. The hashes
// were recorded with the pointer-walking implementation this one replaced
// (commit 8498bee); no reference implementation is kept in the tree. The
// shuffled case exchanges equal-width neighbours first so that thousands of
// swaps are accepted and the index's live coordinates are exercised.
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
		{"shuffled", true, DetailedOptions{Seed: 2, Passes: 3}, 11972,
			"e55068df78f8724e777b5453ace73817cd1c0a2e2f49d824bc709a1fedf77477"},
	}
	d0 := designs.Generate(designs.ScaleSpec(20000, 1)).Design
	Global(d0, Options{Seed: 1})
	Legalize(d0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := d0.Clone()
			if tc.shuffle {
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
