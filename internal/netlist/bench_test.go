package netlist

import (
	"math/rand"
	"testing"
)

// benchMoveDesign is a mid-size design for wirelength benchmarks.
func benchMoveDesign(b *testing.B) *Design {
	b.Helper()
	return wirelenTestDesign(b, 2000, 3000, 42)
}

// BenchmarkWirelenCacheMove measures one cached single-cell move (the
// detailed placer's inner-loop operation).
func BenchmarkWirelenCacheMove(b *testing.B) {
	d := benchMoveDesign(b)
	c := NewWirelenCache(d)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MoveCell(rng.Intn(len(d.Insts)), rng.Float64()*1000, rng.Float64()*1000)
	}
}

// BenchmarkWirelenCacheMoveHighFanout is BenchmarkWirelenCacheMove on cells of
// one 100 000-pin net — the clock-net shape of the scale designs, where a
// MoveCell that scans the net for the moved cell's pins costs O(fan-out).
func BenchmarkWirelenCacheMoveHighFanout(b *testing.B) {
	const nSmall, nBig = 100, 100000
	d := fanoutDesign(b, nSmall, nBig)
	c := NewWirelenCache(d)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MoveCell(nSmall+2+rng.Intn(nBig-2), rng.Float64()*1000, rng.Float64()*1000)
	}
}

// BenchmarkNetHPWL measures one from-scratch per-net recompute, the unit of
// work MoveCell's bbox expansion replaces per incident net.
func BenchmarkNetHPWL(b *testing.B) {
	d := benchMoveDesign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.NetHPWL(d.Nets[i%len(d.Nets)])
	}
}

// BenchmarkFullHPWL measures the full-design recompute a move previously
// implied when the caller wanted a fresh total.
func BenchmarkFullHPWL(b *testing.B) {
	d := benchMoveDesign(b)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rng.Intn(len(d.Insts))
		d.Insts[id].X = rng.Float64() * 1000
		d.Insts[id].Y = rng.Float64() * 1000
		_ = d.HPWL()
	}
}
