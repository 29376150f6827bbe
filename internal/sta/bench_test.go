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
	clk, _ := d.AddPort("clk", netlist.DirInput)
	clk.X, clk.Y = 0, 0
	cn, _ := d.AddNet("clknet")
	cn.Clock = true
	d.Connect(cn, netlist.PinRef{Inst: -1, Pin: "clk"})
	for lane := 0; lane < w; lane++ {
		in, _ := d.AddPort(fmt.Sprintf("in%d", lane), netlist.DirInput)
		in.X, in.Y = 0, float64(lane)
		prev := netlist.PinRef{Inst: -1, Pin: fmt.Sprintf("in%d", lane)}
		for k := 0; k < dep; k++ {
			g, _ := d.AddInstance(fmt.Sprintf("g%d_%d", lane, k), l.Master("INV"))
			g.X, g.Y = float64(k), float64(lane)
			n, _ := d.AddNet(fmt.Sprintf("n%d_%d", lane, k))
			d.Connect(n, prev)
			d.Connect(n, netlist.PinRef{Inst: g.ID, Pin: "A"})
			prev = netlist.PinRef{Inst: g.ID, Pin: "Y"}
		}
		ff, _ := d.AddInstance(fmt.Sprintf("ff%d", lane), l.Master("DFF"))
		ff.X, ff.Y = float64(dep), float64(lane)
		dn, _ := d.AddNet(fmt.Sprintf("d%d", lane))
		d.Connect(dn, prev)
		d.Connect(dn, netlist.PinRef{Inst: ff.ID, Pin: "D"})
		d.Connect(cn, netlist.PinRef{Inst: ff.ID, Pin: "CK"})
	}
	return d
}

// BenchmarkSTABuildAndRun measures timing-graph construction plus full
// arrival/required propagation on a ~10k-pin pipeline.
func BenchmarkSTABuildAndRun(b *testing.B) {
	d := benchPipeline(100, 30)
	cons := consForBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(d, cons)
		a.run()
	}
}

// BenchmarkSTATopPaths measures path enumeration.
func BenchmarkSTATopPaths(b *testing.B) {
	d := benchPipeline(100, 30)
	a := New(d, consForBench())
	a.run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TopPaths(100)
	}
}

// BenchmarkSTAActivity measures vectorless activity propagation.
func BenchmarkSTAActivity(b *testing.B) {
	d := benchPipeline(100, 30)
	cons := consForBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(d, cons)
		a.NetActivity()
	}
}

func consForBench() Constraints {
	c := DefaultConstraints(1e-9)
	c.ClockPorts = []string{"clk"}
	return c
}
