// Package sortx provides the stable LSD radix-sort infrastructure shared by
// the scale-critical packages (place's bisection orderings, route's huge-net
// chain decomposition, cts's sink clustering). Sorting indices rather than
// records keeps the payloads in place; stability over an ascending-index fill
// gives every sort the strict (key, index) total order the deterministic
// divide-and-conquer passes depend on. Purely sequential and comparator-free:
// O(n + buckets) per digit pass, identical output on every run.
package sortx

import "math"

// digitBitsFor picks the LSD digit width from the key count: every pass
// clears and prefix-sums the whole histogram, so the bucket count must not
// outgrow the data. Below 1<<16 keys (a V-P&R sub-netlist, a paper-sized
// design) 8-bit digits keep the histogram at 1 KB; from there up four passes
// over 16-bit digits beat eight over 8-bit ones. A stable LSD sort has one
// possible output, so the width never changes the permutation.
func digitBitsFor(n int) uint {
	if n < 1<<16 {
		return 8
	}
	return 16
}

// bits maps a float64 to a uint64 whose unsigned order matches the float
// order: negatives have all bits flipped, positives get the sign bit set.
// Negative zero maps to the positive-zero key so the two compare equal,
// exactly as float comparison treats them. Callers sort finite geometry, so
// NaN handling is not needed.
func bits(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		if b == 1<<63 {
			return 1 << 63
		}
		return ^b
	}
	return b | 1<<63
}

// Sorter owns the reusable key/value/histogram scratch of the radix sort.
// The zero value is ready to use; buffers grow on demand and are retained
// across calls. A Sorter is not safe for concurrent use.
type Sorter struct {
	key, keyTmp []uint64
	val         []int32
	hist        []int32
}

func (s *Sorter) grow(n int) {
	if cap(s.key) < n {
		s.key = make([]uint64, n)
		s.keyTmp = make([]uint64, n)
		s.val = make([]int32, n)
	}
}

// IndexByFloat64 fills ord with 0..len(ord)-1 and stable-sorts it ascending
// by coord[i] (ties resolve by index). len(coord) must be >= len(ord).
func (s *Sorter) IndexByFloat64(ord []int32, coord []float64) {
	n := len(ord)
	s.grow(n)
	for i := 0; i < n; i++ {
		s.key[i] = bits(coord[i])
	}
	s.run(ord, n)
}

// IndexByKeys fills ord with 0..len(ord)-1 and stable-sorts it ascending by
// keys[i] (ties resolve by index). len(keys) must be >= len(ord).
func (s *Sorter) IndexByKeys(ord []int32, keys []uint64) {
	n := len(ord)
	s.grow(n)
	copy(s.key[:n], keys[:n])
	s.run(ord, n)
}

// run executes the LSD passes over s.key, leaving the sorted index
// permutation in ord. Passes whose digit is constant across all keys are
// skipped after counting — common for geometry confined to one core region,
// where high exponent bits barely vary. The histogram is sized for the digit
// width in use, so a sorter that only ever sees small inputs stays small.
func (s *Sorter) run(ord []int32, n int) {
	if n == 0 {
		return
	}
	digitBits := digitBitsFor(n)
	buckets := 1 << digitBits
	if len(s.hist) < buckets {
		s.hist = make([]int32, buckets)
	}
	srcK, dstK := s.key[:n], s.keyTmp[:n]
	srcV, dstV := ord, s.val[:n]
	for i := 0; i < n; i++ {
		srcV[i] = int32(i)
	}
	hist := s.hist[:buckets]
	mask := uint64(buckets - 1)
	for shift := uint(0); shift < 64; shift += digitBits {
		clear(hist)
		for i := 0; i < n; i++ {
			hist[(srcK[i]>>shift)&mask]++
		}
		if hist[(srcK[0]>>shift)&mask] == int32(n) {
			continue
		}
		sum := int32(0)
		for d, c := range hist {
			hist[d] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			d := (srcK[i] >> shift) & mask
			j := hist[d]
			hist[d] = j + 1
			dstK[j] = srcK[i]
			dstV[j] = srcV[i]
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if &srcV[0] != &ord[0] {
		copy(ord, srcV)
	}
}
