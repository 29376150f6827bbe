package sta

import (
	"fmt"
	"testing"

	"ppaclust/internal/netlist"
)

// benchPipeline builds a wide register pipeline: w parallel chains of depth
// dep between register stages, all clocked.
func benchPipeline(t testing.TB, w, dep int) *netlist.Design {
	t.Helper()
	l := lib()
	b := netlist.NewBuilder("pipe", l)
	d := b.Design
	clk := b.AddPort("clk", netlist.DirInput)
	clk.X, clk.Y = 0, 0
	cn := b.AddNet("clknet")
	cn.Clock = true
	b.Connect(cn, pinRef(d, -1, "clk"))
	for lane := 0; lane < w; lane++ {
		in := b.AddPort(fmt.Sprintf("in%d", lane), netlist.DirInput)
		in.X, in.Y = 0, float64(lane)
		prev := pinRef(d, -1, fmt.Sprintf("in%d", lane))
		for k := 0; k < dep; k++ {
			g := b.AddInstance(fmt.Sprintf("g%d_%d", lane, k), l.Master("INV"))
			g.X, g.Y = float64(k), float64(lane)
			n := b.AddNet(fmt.Sprintf("n%d_%d", lane, k))
			b.Connect(n, prev)
			b.Connect(n, pinRef(d, g.ID, "A"))
			prev = pinRef(d, g.ID, "Y")
		}
		ff := b.AddInstance(fmt.Sprintf("ff%d", lane), l.Master("DFF"))
		ff.X, ff.Y = float64(dep), float64(lane)
		dn := b.AddNet(fmt.Sprintf("d%d", lane))
		b.Connect(dn, prev)
		b.Connect(dn, pinRef(d, ff.ID, "D"))
		b.Connect(cn, pinRef(d, ff.ID, "CK"))
	}
	return build(t, b)
}

// BenchmarkSTABuildAndRun measures timing-graph construction plus full
// arrival/required propagation on a ~10k-pin pipeline.
func BenchmarkSTABuildAndRun(b *testing.B) {
	d := benchPipeline(b, 100, 30)
	cons := DefaultConstraints(1e-9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(d, cons)
		a.run()
	}
}

// BenchmarkSTATopPaths measures path enumeration.
func BenchmarkSTATopPaths(b *testing.B) {
	d := benchPipeline(b, 100, 30)
	a := New(d, DefaultConstraints(1e-9))
	a.run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TopPaths(100)
	}
}

// BenchmarkSTAActivity measures vectorless activity propagation.
func BenchmarkSTAActivity(b *testing.B) {
	d := benchPipeline(b, 100, 30)
	cons := DefaultConstraints(1e-9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(d, cons)
		a.NetActivity()
	}
}
