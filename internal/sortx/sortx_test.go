package sortx

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// testSizes straddle the histogram width (256) and the digit-width boundary
// (1<<16, see digitBitsFor), so both widths and both sides of the switch run.
var testSizes = []int{0, 1, 2, 4, 5, 17, 100, 255, 256, 257, 1000, 1<<16 - 1, 1 << 16, 1<<16 + 1, 70_000}

// identity returns 0..n-1, the fill every index sort starts from.
func identity(n int) []int32 {
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	return ord
}

// TestIndexByFloat64MatchesComparator checks the stable radix sort against a
// stable comparator sort over an ascending-index fill — the (key, index)
// order — including negative coordinates, duplicates (index tie-break), and
// signed zeros, at every digit width.
func TestIndexByFloat64MatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sorter
	for _, n := range testSizes {
		coord := make([]float64, n)
		for i := range coord {
			coord[i] = float64(rng.Intn(20)) * 1.5
			if rng.Intn(4) == 0 {
				coord[i] = -coord[i] // exercises -0.0 == +0.0 ties too
			}
			if rng.Intn(3) == 0 {
				coord[i] += rng.Float64() // low mantissa digits vary as well
			}
		}
		got := make([]int32, n)
		s.IndexByFloat64(got, coord)
		want := identity(n)
		slices.SortStableFunc(want, func(a, b int32) int {
			switch {
			case coord[a] < coord[b]:
				return -1
			case coord[a] > coord[b]:
				return 1
			}
			return 0
		})
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix order differs from the stable comparator sort", n)
		}
	}
}

// TestIndexByKeysStable checks integer-key sorting with explicit duplicate
// runs: equal keys must keep ascending index order.
func TestIndexByKeysStable(t *testing.T) {
	keys := []uint64{5, 2, 5, 2, 1, 5, 1 << 40, 0, 1 << 40}
	ord := make([]int32, len(keys))
	var s Sorter
	s.IndexByKeys(ord, keys)
	want := []int32{7, 4, 1, 3, 0, 2, 5, 6, 8}
	if !slices.Equal(ord, want) {
		t.Fatalf("got %v want %v", ord, want)
	}
	// Random keys with many duplicates and every byte populated, on one
	// sorter whose scratch grows and shrinks across the digit-width boundary.
	rng := rand.New(rand.NewSource(3))
	for _, n := range testSizes {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() >> uint(8*rng.Intn(8))
			if rng.Intn(2) == 0 {
				keys[i] = uint64(rng.Intn(8))
			}
		}
		got := make([]int32, n)
		s.IndexByKeys(got, keys)
		want := identity(n)
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix order differs from the stable comparator sort", n)
		}
	}
}

// TestBitsOrder checks the float64 -> uint64 monotone key map.
func TestBitsOrder(t *testing.T) {
	vals := []float64{-1e30, -2.5, -1, -0.0, 0.0, 1e-300, 1, 2.5, 1e30}
	for i := 1; i < len(vals); i++ {
		a, b := bits(vals[i-1]), bits(vals[i])
		if vals[i-1] == vals[i] {
			if a != b {
				t.Fatalf("equal floats %v %v map to different keys", vals[i-1], vals[i])
			}
		} else if a >= b {
			t.Fatalf("order violated at %v < %v: %x >= %x", vals[i-1], vals[i], a, b)
		}
	}
}

// BenchmarkIndexByFloat64 covers the sizes the sorter is called at: a V-P&R
// sub-netlist (1.5k), a paper-sized design (10k) and the scale workloads.
func BenchmarkIndexByFloat64(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"1.5k", 1500}, {"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}}
	for _, sz := range sizes {
		b.Run(sz.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			coord := make([]float64, sz.n)
			for i := range coord {
				coord[i] = rng.Float64() * 1e4
			}
			ord := make([]int32, sz.n)
			var s Sorter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.IndexByFloat64(ord, coord)
			}
		})
	}
}
