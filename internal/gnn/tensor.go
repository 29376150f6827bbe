// Package gnn implements the paper's GNN-based Total Cost predictor in Go,
// with the dense products in SSE2 assembly on amd64 (kernels.go): a small
// reverse-mode autograd over dense matrices, hypergraph convolution blocks
// (Bai et al. [3]) with batch normalization and skip connections, four
// accumulated convolution branches, global mean pooling and a two-layer
// prediction head — the architecture of Figure 4 — trained with Adam on
// labels produced by the exact V-P&R runner.
package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"ppaclust/internal/par"
)

// tensor is a dense row-major matrix participating in autograd.
type tensor struct {
	R, C  int
	Data  []float64
	Grad  []float64
	param bool
}

// newTensor allocates a zero tensor.
func newTensor(r, c int) *tensor {
	return &tensor{R: r, C: c, Data: make([]float64, r*c), Grad: make([]float64, r*c)}
}

// newParam allocates a parameter tensor with Glorot-uniform init.
func newParam(r, c int, rng *rand.Rand) *tensor {
	t := newTensor(r, c)
	t.param = true
	limit := math.Sqrt(6 / float64(r+c))
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return t
}

// zeroGrad clears the gradient buffer.
func (t *tensor) zeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// ctx records the operation tape for one forward pass. backward replays
// it in reverse. A ctx is single-use.
type ctx struct {
	tape  []func()
	train bool

	// forks are child tapes recorded before anything on tape; backward
	// replays them side by side on up to workers goroutines.
	forks   []*ctx
	workers int
}

// newCtx returns a fresh tape. train enables batch-norm batch statistics.
func newCtx(train bool) *ctx { return &ctx{train: train} }

func (c *ctx) push(back func()) {
	c.tape = append(c.tape, back)
}

// fork gives c n child tapes whose backward passes run concurrently on up to
// workers goroutines. Call it before recording anything on c: backward
// replays c's own tape first, so c may only record ops that consume the
// children's outputs, and the children must share no tensor they write
// gradients into.
func (c *ctx) fork(n, workers int) []*ctx {
	c.forks = make([]*ctx, n)
	for i := range c.forks {
		c.forks[i] = newCtx(c.train)
	}
	c.workers = workers
	return c.forks
}

// backward runs the tape in reverse, then the forked tapes. The caller must
// have seeded the output gradient (e.g. via a loss op).
func (c *ctx) backward() {
	for i := len(c.tape) - 1; i >= 0; i-- {
		c.tape[i]()
	}
	par.Blocks(c.workers, len(c.forks), func(_, lo, hi int) {
		for _, f := range c.forks[lo:hi] {
			f.backward()
		}
	})
}

// badShape reports a tensor-shape violation. Layer shapes are fixed by the
// model architecture at construction time, so a mismatch is a wiring bug in
// the calling code, never a runtime data condition; threading errors
// through every arithmetic op would bury the math under impossible-error
// plumbing.
func badShape(msg string) {
	panic(msg) //ppalint:ignore nopanic invariant assertion: layer shapes are fixed by the architecture, a mismatch is a wiring bug
}

// matMul returns a@b, recording the backward closure.
func (c *ctx) matMul(a, b *tensor) *tensor {
	if a.C != b.R {
		badShape(fmt.Sprintf("gnn: matmul shape mismatch %v x %v", a, b))
	}
	out := newTensor(a.R, b.C)
	matmul(a.Data, b.Data, out.Data, a.R, a.C, b.C, false, false)
	c.push(func() {
		// dA += dOut @ B^T ; dB += A^T @ dOut
		matmulAcc(out.Grad, b.Data, a.Grad, a.R, b.C, a.C, false, true)
		matmulAcc(a.Data, out.Grad, b.Grad, a.C, a.R, b.C, true, false)
	})
	return out
}

// matmul computes out = A@B with optional transposes (dims are of the
// effective operation: out is m x n, inner k).
func matmul(a, b, out []float64, m, k, n int, ta, tb bool) {
	for i := range out {
		out[i] = 0
	}
	matmulAcc(a, b, out, m, k, n, ta, tb)
}

// matmulAcc accumulates out += op(A)@op(B). For ta=false, A is m x k; for
// ta=true, A is k x m. For tb=false, B is k x n; tb=true, B is n x k.
//
// Every output element adds its terms a·b one at a time in ascending p and
// skips a term whose a is zero, whatever the loop order. That sequence is
// what fixes the trained weights to the bit (TestFitBitIdentical), so the
// loops below may only reorder work across elements, never within one.
func matmulAcc(a, b, out []float64, m, k, n int, ta, tb bool) {
	if tb {
		// B is a weight (at most 64 x 64 here): one transpose turns the
		// strided reads into the row reads of the plain case.
		bt := make([]float64, k*n)
		for j := 0; j < n; j++ {
			for p, v := range b[j*k : (j+1)*k] {
				bt[p*n+j] = v
			}
		}
		b = bt
	}
	if !ta {
		// Row i of out takes B's rows scaled by row i of A, in ascending p.
		for i := 0; i < m; i++ {
			outRow := out[i*n : (i+1)*n]
			for p, av := range a[i*k : (i+1)*k] {
				if av != 0 {
					axpy(outRow, b[p*n:(p+1)*n], av)
				}
			}
		}
		return
	}
	// A is an n-node activation read by column: with p outermost both A
	// and B are walked row by row, and out (m x n, a weight's shape) stays
	// in cache.
	for p := 0; p < k; p++ {
		bRow := b[p*n : (p+1)*n]
		for i, av := range a[p*m : (p+1)*m] {
			if av != 0 {
				axpy(out[i*n:(i+1)*n], bRow, av)
			}
		}
	}
}

// addBias adds a row-vector bias to every row.
func (c *ctx) addBias(x, b *tensor) *tensor {
	if b.R != 1 || b.C != x.C {
		badShape("gnn: bias shape mismatch")
	}
	out := newTensor(x.R, x.C)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[i*x.C+j] = x.Data[i*x.C+j] + b.Data[j]
		}
	}
	c.push(func() {
		for i := 0; i < x.R; i++ {
			for j := 0; j < x.C; j++ {
				g := out.Grad[i*x.C+j]
				x.Grad[i*x.C+j] += g
				b.Grad[j] += g
			}
		}
	})
	return out
}

// add returns x+y for equal shapes (used for skip connections and branch
// accumulation).
func (c *ctx) add(x, y *tensor) *tensor {
	if x.R != y.R || x.C != y.C {
		badShape("gnn: add shape mismatch")
	}
	out := newTensor(x.R, x.C)
	for i := range out.Data {
		out.Data[i] = x.Data[i] + y.Data[i]
	}
	c.push(func() {
		for i := range out.Grad {
			x.Grad[i] += out.Grad[i]
			y.Grad[i] += out.Grad[i]
		}
	})
	return out
}

// relu applies max(0, x) elementwise.
func (c *ctx) relu(x *tensor) *tensor {
	out := newTensor(x.R, x.C)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	c.push(func() {
		for i := range out.Grad {
			if x.Data[i] > 0 {
				x.Grad[i] += out.Grad[i]
			}
		}
	})
	return out
}

// meanRows performs global mean pooling over rows: [n x d] -> [1 x d].
func (c *ctx) meanRows(x *tensor) *tensor {
	out := newTensor(1, x.C)
	inv := 1 / float64(x.R)
	for i := 0; i < x.R; i++ {
		for j := 0; j < x.C; j++ {
			out.Data[j] += x.Data[i*x.C+j] * inv
		}
	}
	c.push(func() {
		for i := 0; i < x.R; i++ {
			for j := 0; j < x.C; j++ {
				x.Grad[i*x.C+j] += out.Grad[j] * inv
			}
		}
	})
	return out
}

// sparse is a fixed (non-learnable) n x n sparse matrix in flat CSR storage
// with a fill cursor per row: row i owns slots start[i]..start[i+1] and holds
// entries in start[i]..end[i], in the order they were added. Entries are not
// coalesced — the same (i, j) may appear more than once — and spmm adds them
// up in exactly that order, which is what keeps training arithmetic stable
// across storage changes.
type sparse struct {
	N     int
	start []int // len N+1
	end   []int // len N
	col   []int
	val   []float64
}

// newSparse allocates an empty n x n sparse matrix, n = len(rowCap), whose
// row i has room for rowCap[i] entries.
func newSparse(rowCap []int) *sparse {
	n := len(rowCap)
	s := &sparse{N: n, start: make([]int, n+1), end: make([]int, n)}
	for i, c := range rowCap {
		s.start[i+1] = s.start[i] + c
	}
	copy(s.end, s.start)
	s.col = make([]int, s.start[n])
	s.val = make([]float64, s.start[n])
	return s
}

// add appends the entry S[i][j] += v to row i.
func (s *sparse) add(i, j int, v float64) {
	k := s.end[i]
	if k == s.start[i+1] {
		badShape(fmt.Sprintf("gnn: sparse row %d is full", i))
	}
	s.col[k], s.val[k] = j, v
	s.end[i] = k + 1
}

// spmm returns S @ x ([n x n] @ [n x d]). S carries no gradient; the
// backward pass multiplies by S^T.
func (c *ctx) spmm(s *sparse, x *tensor) *tensor {
	if s.N != x.R {
		badShape("gnn: spmm shape mismatch")
	}
	out := newTensor(x.R, x.C)
	d := x.C
	for i := 0; i < s.N; i++ {
		for k := s.start[i]; k < s.end[i]; k++ {
			col, val := s.col[k], s.val[k]
			xv := x.Data[col*d : (col+1)*d]
			ov := out.Data[i*d : (i+1)*d]
			for j := 0; j < d; j++ {
				ov[j] += val * xv[j]
			}
		}
	}
	c.push(func() {
		for i := 0; i < s.N; i++ {
			for k := s.start[i]; k < s.end[i]; k++ {
				col, val := s.col[k], s.val[k]
				og := out.Grad[i*d : (i+1)*d]
				xg := x.Grad[col*d : (col+1)*d]
				for j := 0; j < d; j++ {
					xg[j] += val * og[j]
				}
			}
		}
	})
	return out
}

// mse seeds the backward pass with the mean-squared-error gradient of a
// [1x1] prediction against a scalar label, returning the loss value.
func (c *ctx) mse(pred *tensor, label float64) float64 {
	if pred.R != 1 || pred.C != 1 {
		badShape("gnn: MSE expects 1x1 prediction")
	}
	diff := pred.Data[0] - label
	pred.Grad[0] += 2 * diff
	return diff * diff
}
