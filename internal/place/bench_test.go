package place

import (
	"strconv"
	"testing"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
)

func benchDesign(b *testing.B, name string) *designs.Benchmark {
	b.Helper()
	spec, ok := designs.Named(name)
	if !ok {
		b.Fatal("unknown design")
	}
	return designs.Generate(spec)
}

// BenchmarkGlobalPlace measures from-scratch global placement of ariane.
func BenchmarkGlobalPlace(b *testing.B) {
	bench := benchDesign(b, "ariane")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := bench.Design.Clone()
		Global(d, Options{Seed: 1})
	}
}

// BenchmarkIncrementalPlace measures an incremental placement of ariane
// seeded the way flow.Run seeds it: every cell stacked on the centre of its
// cluster. The clusters are cluster.MultilevelFC's, and a cluster's centre is
// the mean of its cells' centres in a flat placement, standing in for the
// flow's placement of the clustered netlist. Like the flow's runs, it spends
// the default budget of 6 rounds.
func BenchmarkIncrementalPlace(b *testing.B) {
	bench := benchDesign(b, "ariane")
	d0 := bench.Design.Clone()
	Global(d0, Options{Seed: 1})
	cres := cluster.MultilevelFC(d0.ToHypergraph().H, cluster.Options{Alpha: 1, Seed: 1})
	sumX := make([]float64, cres.NumClusters)
	sumY := make([]float64, cres.NumClusters)
	cnt := make([]float64, cres.NumClusters)
	for id, c := range cres.Assign {
		if inst := d0.Insts[id]; !inst.Fixed {
			sumX[c] += inst.CenterX()
			sumY[c] += inst.CenterY()
			cnt[c]++
		}
	}
	for id, c := range cres.Assign {
		if inst := d0.Insts[id]; !inst.Fixed {
			inst.X = sumX[c]/cnt[c] - inst.Master.Width/2
			inst.Y = sumY[c]/cnt[c] - inst.Master.Height/2
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := d0.Clone()
		Global(d, Options{Seed: 1, Incremental: true})
	}
}

// roundPlacer sets a placer up on d the way Global does and runs it the
// given number of rounds, so the cells have spread a little, the anchors are
// set and every buffer a round touches has reached its steady-state size.
func roundPlacer(d *netlist.Design, opt Options, rounds int) *placer {
	p := &placer{d: d, opt: opt.withDefaults(), core: d.Core, workers: par.Workers(opt.Workers)}
	p.collect()
	p.newAxes()
	p.initPositions()
	for iter := 0; iter < rounds; iter++ {
		p.solveRound(spreadWeight * float64(iter))
		p.clampAll()
		p.computeSpreadTargets()
	}
	return p
}

// BenchmarkSolveRound measures one placement round's two axis solves —
// assembly plus CG, both axes — at the sizes of the vpr10k and scale100k
// workloads, sequentially and with the axes side by side.
func BenchmarkSolveRound(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		if n > 10000 && testing.Short() {
			continue
		}
		d := designs.Generate(designs.ScaleSpec(n, 1)).Design
		for _, w := range []int{1, 2} {
			b.Run(strconv.Itoa(n/1000)+"k/W"+strconv.Itoa(w), func(b *testing.B) {
				p := roundPlacer(d, Options{Seed: 1, Workers: w}, 2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.solveRound(spreadWeight)
				}
			})
		}
	}
}

// BenchmarkMulADot measures the CG matvec alone, the kernel a solve calls up
// to cgMaxIters+1 times, on the x system of a spread placement at the sizes of
// a V-P&R sub-netlist and of the vpr10k and scale100k workloads. ns/spring is
// the time per variable-to-variable spring of the round.
func BenchmarkMulADot(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cells int
	}{{"1.5k", 1500}, {"10k", 10000}, {"100k", 100000}} {
		if bc.cells > 10000 && testing.Short() {
			continue
		}
		b.Run(bc.name, func(b *testing.B) {
			d := designs.Generate(designs.ScaleSpec(bc.cells, 1)).Design
			p := roundPlacer(d, Options{Seed: 1, Workers: 1}, 2)
			s := p.axes[0]
			pos, fix, anch, seed := axisArgs(p, true)
			s.assemble(p, pos, fix, anch, seed, spreadWeight)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchDot = s.mulADot(s.rhs, s.cgAx)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.springs)), "ns/spring")
		})
	}
}

// benchDot keeps BenchmarkMulADot's product live.
var benchDot float64

// BenchmarkSpreadTargets measures one round's density measurement and
// spreading bisection at the size of the scale100k workload, sequentially and
// with the two halves of the first cut side by side — the one fork in bisect.
func BenchmarkSpreadTargets(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-cell design")
	}
	d := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	for _, w := range []int{1, 2} {
		b.Run("100k/W"+strconv.Itoa(w), func(b *testing.B) {
			p := roundPlacer(d, Options{Seed: 1, Workers: w}, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.computeSpreadTargets()
			}
		})
	}
}

// BenchmarkLegalize measures Tetris legalization.
func BenchmarkLegalize(b *testing.B) {
	bench := benchDesign(b, "ariane")
	d0 := bench.Design.Clone()
	Global(d0, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := d0.Clone()
		Legalize(d)
	}
}

// BenchmarkLegalizeScale100k is BenchmarkLegalize on the globally placed
// ScaleSpec(100000, 1) design of the repo benchmark's scale workloads; the
// copy each op legalizes is made outside the timer.
func BenchmarkLegalizeScale100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-cell placement set-up")
	}
	d0 := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	Global(d0, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := d0.Clone()
		b.StartTimer()
		Legalize(d)
	}
}

// BenchmarkDetailed measures swap-based detailed placement.
func BenchmarkDetailed(b *testing.B) {
	bench := benchDesign(b, "jpeg")
	d0 := bench.Design.Clone()
	Global(d0, Options{Seed: 1})
	Legalize(d0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := d0.Clone()
		Detailed(d, DetailedOptions{Seed: 1})
	}
}

// BenchmarkDetailedScale100k is BenchmarkDetailed at the size and shape of
// the repo benchmark's scale workloads: 100k cells, 20% of them on one clock
// net, where per-visit cost that grows with net fan-out dominates everything.
func BenchmarkDetailedScale100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-cell placement set-up")
	}
	d0 := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	Global(d0, Options{Seed: 1})
	Legalize(d0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := d0.Clone()
		b.StartTimer()
		Detailed(d, DetailedOptions{Seed: 1})
	}
}
