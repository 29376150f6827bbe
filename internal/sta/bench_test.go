package sta

import (
	"fmt"
	"testing"

	"ppaclust/internal/netlist"
)

// benchPipeline builds a wide register pipeline: w parallel chains of depth
// dep between register stages, all clocked.
func benchPipeline(w, dep int) *netlist.Design {
	l := lib()
	d := netlist.NewDesign("pipe", l)
	clk := d.AddPort("clk", netlist.DirInput)
	clk.X, clk.Y = 0, 0
	cn := d.AddNet("clknet")
	cn.Clock = true
	d.Connect(cn, pinRef(d, -1, "clk"))
	for lane := 0; lane < w; lane++ {
		in := d.AddPort(fmt.Sprintf("in%d", lane), netlist.DirInput)
		in.X, in.Y = 0, float64(lane)
		prev := pinRef(d, -1, fmt.Sprintf("in%d", lane))
		for k := 0; k < dep; k++ {
			g := d.AddInstance(fmt.Sprintf("g%d_%d", lane, k), l.Master("INV"))
			g.X, g.Y = float64(k), float64(lane)
			n := d.AddNet(fmt.Sprintf("n%d_%d", lane, k))
			d.Connect(n, prev)
			d.Connect(n, pinRef(d, g.ID, "A"))
			prev = pinRef(d, g.ID, "Y")
		}
		ff := d.AddInstance(fmt.Sprintf("ff%d", lane), l.Master("DFF"))
		ff.X, ff.Y = float64(dep), float64(lane)
		dn := d.AddNet(fmt.Sprintf("d%d", lane))
		d.Connect(dn, prev)
		d.Connect(dn, pinRef(d, ff.ID, "D"))
		d.Connect(cn, pinRef(d, ff.ID, "CK"))
	}
	return d
}

// BenchmarkSTABuildAndRun measures timing-graph construction plus full
// arrival/required propagation on a ~10k-pin pipeline.
func BenchmarkSTABuildAndRun(b *testing.B) {
	d := benchPipeline(100, 30)
	cons := DefaultConstraints(1e-9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(d, cons)
		a.run()
	}
}

// BenchmarkSTATopPaths measures path enumeration.
func BenchmarkSTATopPaths(b *testing.B) {
	d := benchPipeline(100, 30)
	a := New(d, DefaultConstraints(1e-9))
	a.run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TopPaths(100)
	}
}

// BenchmarkSTAActivity measures vectorless activity propagation.
func BenchmarkSTAActivity(b *testing.B) {
	d := benchPipeline(100, 30)
	cons := DefaultConstraints(1e-9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(d, cons)
		a.NetActivity()
	}
}
