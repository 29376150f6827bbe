package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sameBits reports whether got and want are the same float64 bits, or both
// NaN: where two NaNs meet, which payload survives depends on the operand
// order a compiler or an instruction picks, not on the order of the terms.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// gemmGeneric is gemm on the portable kernels alone, one row at a time.
func gemmGeneric(a, w, out []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		o, ar := out[i*n:(i+1)*n], a[i*k:(i+1)*k]
		clear(o)
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4Generic(o, w[p*n:], w[(p+1)*n:], w[(p+2)*n:], w[(p+3)*n:],
				ar[p], ar[p+1], ar[p+2], ar[p+3])
		}
		for ; p < k; p++ {
			axpyGeneric(o, w[p*n:], ar[p])
		}
	}
}

// TestKernelsMatchPortable holds axpy, axpy4, gemm2, bnReLU, varAcc, rowAcc
// and gemm (the assembly kernels) to the portable ones bit for bit: every
// length 0-130 (the packed loops, every n mod 32 and n mod 4 tail and the
// empty case), slices starting on an odd word (unaligned for 16- and 32-byte
// loads), magnitudes over twenty decades (any change of term order shows),
// ±0, subnormals and ±Inf, and NaN in a case of its own; gemm2 at every n mod
// 8 and at k = 33, the shape-free layer-1 product; rowAcc at k = 0, 1 and 33,
// with stride 1 and 3 and coefficients that are often +0, −0 or NaN; and gemm
// at odd m. Where the assembly does not run there is nothing to compare, and
// the test says why it skips.
func TestKernelsMatchPortable(t *testing.T) {
	if !useAVX {
		t.Skipf("no assembly kernels run here (GOARCH %s; on amd64, a CPU without AVX): the portable kernels are the only ones", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(1))
	subnormal := []float64{5e-324, -2.5e-310, 1e-308, 0, math.Copysign(0, -1)}
	inf := append([]float64{math.Inf(1), math.Inf(-1)}, subnormal...)
	nan := append([]float64{math.NaN()}, subnormal...)
	// rowAcc skips a ±0 coefficient and must not skip a NaN one.
	zeroNaN := []float64{0, math.Copysign(0, -1), math.NaN()}
	// fill returns n values starting off at word off of a fresh buffer.
	fill := func(n, off int, special []float64) []float64 {
		v := make([]float64, n+off)[off:]
		for i := range v {
			if rng.Float64() < 0.1 {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(21)-10))
			}
		}
		return v
	}
	check := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: element %d = %v (%#x), portable %v (%#x)", what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, special := range [][]float64{subnormal, inf, nan} {
		for n := 0; n <= 130; n++ {
			for off := 0; off < 2; off++ {
				o := fill(n, off, special)
				x := [4][]float64{fill(n, 1-off, special), fill(n, off, special), fill(n+3, 1-off, special), fill(n, off, special)}
				a := fill(4, 0, special)

				got, want := append([]float64(nil), o...), append([]float64(nil), o...)
				axpy(got, x[0], a[0])
				axpyGeneric(want, x[0], a[0])
				check(t, "axpy", got, want)

				axpy4(got, x[0], x[1], x[2], x[3], a[0], a[1], a[2], a[3])
				axpy4Generic(want, x[0], x[1], x[2], x[3], a[0], a[1], a[2], a[3])
				check(t, "axpy4", got, want)

				varAcc(got, x[0], x[1], a[0])
				varAccGeneric(want, x[0], x[1], a[0])
				check(t, "varAcc", got, want)

				bnReLU(got, x[1], x[2], x[3])
				bnReLUGeneric(want, x[1], x[2], x[3])
				check(t, "bnReLU", got, want)

				for _, k := range []int{0, 1, 33} {
					for _, stride := range []int{1, 3} {
						coef := fill(max(0, (k-1)*stride+1), 1-off, zeroNaN)
						w := fill(k*n, off, special)
						got, want := append([]float64(nil), o...), append([]float64(nil), o...)
						rowAcc(got, coef, stride, k, w)
						rowAccGeneric(want, coef, stride, k, w)
						check(t, fmt.Sprintf("rowAcc k=%d stride=%d", k, stride), got, want)
					}
				}

				for _, k := range []int{0, 1, 4, 7, 33} {
					a0, a1, w := fill(k, off, special), fill(k, 1-off, special), fill(k*n, off, special)
					o1 := fill(n, 1-off, special)
					got0, want0 := append([]float64(nil), o...), append([]float64(nil), o...)
					got1, want1 := append([]float64(nil), o1...), append([]float64(nil), o1...)
					gemm2(got0, got1, a0, a1, w)
					gemm2Generic(want0, want1, a0, a1, w)
					check(t, "gemm2 row 0", got0, want0)
					check(t, "gemm2 row 1", got1, want1)
				}
			}
		}
		for _, d := range [][3]int{{1, 33, 64}, {7, 33, 64}, {5, 64, 64}, {9, 64, 32}, {3, 6, 5}, {0, 4, 4}} {
			m, k, n := d[0], d[1], d[2]
			a, w := fill(m*k, 1, special), fill(k*n, 0, special)
			got, want := fill(m*n, 1, special), make([]float64, m*n)
			gemm(a, w, got, m, k, n)
			gemmGeneric(a, w, want, m, k, n)
			check(t, "gemm", got, want)
		}
	}
}
