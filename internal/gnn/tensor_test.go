package gnn

import (
	"math"
	"math/rand"
	"testing"
)

// matmulAccRef is matmulAcc as first written, one output row at a time: the
// reference for the order in which each output element takes its terms.
func matmulAccRef(a, b, out []float64, m, k, n int, ta, tb bool) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			var av float64
			if ta {
				av = a[p*m+i]
			} else {
				av = a[i*k+p]
			}
			if av == 0 {
				continue
			}
			outRow := out[i*n : (i+1)*n]
			if tb {
				for j := 0; j < n; j++ {
					outRow[j] += av * b[j*k+p]
				}
			} else {
				bRow := b[p*n : (p+1)*n]
				for j := 0; j < n; j++ {
					outRow[j] += av * bRow[j]
				}
			}
		}
	}
}

// TestMatMulAccMatchesReference: the cache-order loops land on the
// reference's bits in every layout, on shapes off the four-column block,
// with magnitudes over twenty decades (so any change of term order shows),
// ±0 in A (skipped, or 0·Inf would be NaN), and subnormals, ±Inf and NaN in
// B. ±Inf and NaN go in separate cases: where Inf−Inf's NaN meets NaN·x,
// amd64 keeps the payload of whichever operand the compiler put first, a
// register choice rather than a term order.
func TestMatMulAccMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int, special []float64, rate float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Float64() < rate {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(21)-10))
			}
		}
		return v
	}
	zeros := []float64{0, math.Copysign(0, -1)}
	subnormal := []float64{5e-324, -2.5e-310, 1e-308}
	inf := append([]float64{math.Inf(1), math.Inf(-1)}, subnormal...)
	nan := append([]float64{math.NaN()}, subnormal...)
	for _, d := range [][3]int{{1, 1, 1}, {3, 5, 7}, {7, 35, 64}, {13, 64, 35}, {6, 9, 33}, {2, 64, 1}} {
		m, k, n := d[0], d[1], d[2]
		for _, bSpecial := range [][]float64{subnormal, inf, nan} {
			for _, layout := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				ta, tb := layout[0], layout[1]
				a := fill(m*k, zeros, 0.3)
				b := fill(k*n, bSpecial, 0.05)
				want := fill(m*n, nil, 0)
				got := append([]float64(nil), want...)
				matmulAccRef(a, b, want, m, k, n, ta, tb)
				matmulAcc(a, b, got, m, k, n, ta, tb)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%dx%d ta=%v tb=%v B specials %v: out[%d] = %v, reference %v",
							m, k, n, ta, tb, bSpecial, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := newCtx(false)
	c.matMul(newTensor(2, 3), newTensor(4, 2))
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := newCtx(false)
	c.add(newTensor(2, 3), newTensor(3, 2))
}

func TestSpMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := newCtx(false)
	s := newSparse(make([]int, 3))
	c.spmm(s, newTensor(4, 2))
}

func TestMSERequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := newCtx(false)
	c.mse(newTensor(2, 1), 0)
}

func TestTensorZeroGrad(t *testing.T) {
	x := newTensor(2, 3)
	x.Grad[0] = 5
	x.zeroGrad()
	if x.Grad[0] != 0 {
		t.Fatal("ZeroGrad broken")
	}
}

func TestReLUForwardBackwardSigns(t *testing.T) {
	c := newCtx(false)
	x := newTensor(1, 4)
	copy(x.Data, []float64{-2, -0.5, 0.5, 2})
	y := c.relu(x)
	want := []float64{0, 0, 0.5, 2}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu fwd: %v", y.Data)
		}
	}
	for i := range y.Grad {
		y.Grad[i] = 1
	}
	c.backward()
	if x.Grad[0] != 0 || x.Grad[1] != 0 || x.Grad[2] != 1 || x.Grad[3] != 1 {
		t.Fatalf("relu bwd: %v", x.Grad)
	}
}
