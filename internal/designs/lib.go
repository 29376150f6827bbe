// Package designs provides the reproduction's benchmark substrate: a
// NanGate45-flavored standard-cell library built programmatically, and a
// deterministic synthetic design generator that emits the six benchmark
// designs of the paper (aes, jpeg, ariane, BlackParrot, MegaBoom,
// MemPool Group) at laptop scale, preserving the structural properties the
// paper's methods exploit: logical hierarchy locality, critical-path depth,
// high-activity nets and design-size ratios.
package designs

import (
	"ppaclust/internal/netlist"
)

// Library geometry constants (microns), NanGate45-like.
const (
	RowHeight = 1.4
	SiteWidth = 0.19
)

// makeTable builds a 3x4 NLDM table: delay = base + slewSens*slew + res*load.
func makeTable(base, slewSens, res float64) netlist.Table {
	slews := []float64{5e-12, 20e-12, 80e-12}
	loads := []float64{1e-15, 4e-15, 16e-15, 64e-15}
	vals := make([][]float64, len(slews))
	for i, s := range slews {
		vals[i] = make([]float64, len(loads))
		for j, l := range loads {
			vals[i][j] = base + slewSens*s + res*l
		}
	}
	return netlist.Table{Slews: slews, Loads: loads, Values: vals}
}

// makeSlewTable builds the output-slew table for a drive resistance.
func makeSlewTable(base, res float64) netlist.Table {
	slews := []float64{5e-12, 20e-12, 80e-12}
	loads := []float64{1e-15, 4e-15, 16e-15, 64e-15}
	vals := make([][]float64, len(slews))
	for i, s := range slews {
		vals[i] = make([]float64, len(loads))
		for j, l := range loads {
			vals[i][j] = base + 0.1*s + 0.8*res*l
		}
	}
	return netlist.Table{Slews: slews, Loads: loads, Values: vals}
}

type gateSpec struct {
	name       string
	widthsites int
	inputs     []string
	base       float64 // intrinsic delay (s)
	res        float64 // drive resistance (s/F)
	cap        float64 // input cap (F)
	energy     float64 // internal energy per transition (J)
	leak       float64 // leakage (W)
}

// Lib builds a fresh instance of the standard-cell library. Masters are
// immutable once built, so callers may share one library across designs.
func Lib() *netlist.Library {
	lib := netlist.NewLibrary("ppaclust45")
	combs := []gateSpec{
		{"INV_X1", 2, []string{"A"}, 12e-12, 3.0e3, 1.0e-15, 0.4e-15, 10e-9},
		{"INV_X2", 3, []string{"A"}, 10e-12, 1.6e3, 1.8e-15, 0.7e-15, 18e-9},
		{"BUF_X1", 3, []string{"A"}, 22e-12, 2.6e3, 1.0e-15, 0.6e-15, 14e-9},
		{"BUF_X4", 6, []string{"A"}, 18e-12, 0.8e3, 3.2e-15, 1.6e-15, 42e-9},
		{"NAND2_X1", 3, []string{"A1", "A2"}, 16e-12, 3.2e3, 1.1e-15, 0.7e-15, 16e-9},
		{"NOR2_X1", 3, []string{"A1", "A2"}, 18e-12, 3.6e3, 1.2e-15, 0.7e-15, 16e-9},
		{"AND2_X1", 4, []string{"A1", "A2"}, 24e-12, 3.0e3, 1.1e-15, 0.9e-15, 20e-9},
		{"OR2_X1", 4, []string{"A1", "A2"}, 26e-12, 3.0e3, 1.1e-15, 0.9e-15, 20e-9},
		{"XOR2_X1", 6, []string{"A", "B"}, 32e-12, 3.4e3, 1.8e-15, 1.4e-15, 28e-9},
		{"AOI21_X1", 4, []string{"A", "B1", "B2"}, 22e-12, 3.4e3, 1.2e-15, 0.9e-15, 18e-9},
		{"MUX2_X1", 7, []string{"A", "B", "S"}, 30e-12, 3.0e3, 1.4e-15, 1.3e-15, 26e-9},
	}
	for _, g := range combs {
		m := &netlist.Master{
			Name:    g.name,
			Class:   netlist.ClassCore,
			Width:   float64(g.widthsites) * SiteWidth,
			Height:  RowHeight,
			Leakage: g.leak,
		}
		for _, in := range g.inputs {
			m.AddPin(netlist.MasterPin{Name: in, Dir: netlist.DirInput, Cap: g.cap})
		}
		out := m.AddPin(netlist.MasterPin{Name: "ZN", Dir: netlist.DirOutput, MaxCap: 80e-15})
		for in := range g.inputs { // input i is pin i
			out.Arcs = append(out.Arcs, netlist.TimingArc{
				From:   in,
				Kind:   netlist.ArcComb,
				Delay:  makeTable(g.base, 0.25, g.res),
				Slew:   makeSlewTable(6e-12, g.res),
				Energy: g.energy,
			})
		}
		mustAdd(lib, m)
	}

	// DFF_X1: D, CK -> Q with clk-to-q, setup and hold arcs; CK is pin 1.
	dff := &netlist.Master{
		Name:    "DFF_X1",
		Class:   netlist.ClassCore,
		Width:   17 * SiteWidth,
		Height:  RowHeight,
		Leakage: 60e-9,
	}
	dff.AddPin(netlist.MasterPin{
		Name: "D", Dir: netlist.DirInput, Cap: 1.2e-15,
		Arcs: []netlist.TimingArc{
			{From: 1, Kind: netlist.ArcSetup, Delay: netlist.Const(35e-12)},
			{From: 1, Kind: netlist.ArcHold, Delay: netlist.Const(5e-12)},
		},
	})
	dff.AddPin(netlist.MasterPin{Name: "CK", Dir: netlist.DirInput, Cap: 0.9e-15, Clock: true})
	q := dff.AddPin(netlist.MasterPin{Name: "Q", Dir: netlist.DirOutput, MaxCap: 80e-15})
	q.Arcs = []netlist.TimingArc{{
		From:   1,
		Kind:   netlist.ArcClkToQ,
		Delay:  makeTable(70e-12, 0.15, 2.4e3),
		Slew:   makeSlewTable(8e-12, 2.4e3),
		Energy: 2.8e-15,
	}}
	mustAdd(lib, dff)

	// A clock buffer used by CTS.
	cb := &netlist.Master{
		Name:    "CLKBUF_X2",
		Class:   netlist.ClassCore,
		Width:   5 * SiteWidth,
		Height:  RowHeight,
		Leakage: 30e-9,
	}
	cb.AddPin(netlist.MasterPin{Name: "A", Dir: netlist.DirInput, Cap: 1.6e-15})
	cbo := cb.AddPin(netlist.MasterPin{Name: "Z", Dir: netlist.DirOutput, MaxCap: 120e-15})
	cbo.Arcs = []netlist.TimingArc{{
		From:   0,
		Kind:   netlist.ArcComb,
		Delay:  makeTable(20e-12, 0.2, 1.0e3),
		Slew:   makeSlewTable(6e-12, 1.0e3),
		Energy: 1.2e-15,
	}}
	mustAdd(lib, cb)

	// A small SRAM macro (address in, data out), preplaced in big designs:
	// address pins 0-7, CK pin 8, data pins 9-16.
	ram := &netlist.Master{
		Name:    "RAM32X32",
		Class:   netlist.ClassMacro,
		Width:   24,
		Height:  22.4, // 16 rows
		Leakage: 4e-6,
	}
	for i := 0; i < 8; i++ {
		ram.AddPin(netlist.MasterPin{
			Name: "A" + itoa(i), Dir: netlist.DirInput, Cap: 2.2e-15,
			OffsetX: 0.2, OffsetY: 1 + float64(i),
			Arcs: []netlist.TimingArc{{From: 8, Kind: netlist.ArcSetup, Delay: netlist.Const(60e-12)}},
		})
	}
	ram.AddPin(netlist.MasterPin{Name: "CK", Dir: netlist.DirInput, Cap: 2.0e-15, Clock: true, OffsetX: 0.2, OffsetY: 0.5})
	for i := 0; i < 8; i++ {
		p := ram.AddPin(netlist.MasterPin{
			Name: "Q" + itoa(i), Dir: netlist.DirOutput, MaxCap: 100e-15,
			OffsetX: 23.8, OffsetY: 1 + float64(i),
		})
		p.Arcs = []netlist.TimingArc{{
			From:   8,
			Kind:   netlist.ArcClkToQ,
			Delay:  makeTable(240e-12, 0.1, 1.5e3),
			Slew:   makeSlewTable(12e-12, 1.5e3),
			Energy: 40e-15,
		}}
	}
	mustAdd(lib, ram)
	return lib
}

// mustAdd asserts a library-construction invariant: the synthetic cell
// library is a fixed list of distinct master names, so AddMaster cannot
// fail. A panic here is a bug in this file's master table.
func mustAdd(lib *netlist.Library, m *netlist.Master) {
	if err := lib.AddMaster(m); err != nil {
		panic(err) //ppalint:ignore nopanic invariant assertion: the static master table has distinct names, failure is a table bug
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
