// Package gnn implements the paper's GNN-based Total Cost predictor in Go,
// with its products and per-row passes on 256-bit AVX assembly where the CPU
// has it and on portable Go loops elsewhere (kernels.go): a small
// reverse-mode autograd over dense matrices whose tapes take their buffers
// from reusable arenas, hypergraph convolution blocks
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

// tensor is a dense row-major matrix participating in autograd. Grad is nil
// for a constant, a tensor no gradient flows into: the model input, and the
// SpMM of it that opens every branch.
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
// it in reverse; reset empties it for the next pass.
type ctx struct {
	tape  []func()
	train bool

	// mem and hdr hold every buffer and tensor header the tape's ops
	// create; they live until the next reset.
	mem slab[float64]
	hdr slab[tensor]

	// forks are child tapes recorded before anything on tape; backward
	// replays them side by side on up to workers goroutines.
	forks   []*ctx
	workers int
}

// newCtx returns a fresh tape with empty arenas. train enables batch-norm
// batch statistics.
func newCtx(train bool) *ctx { return &ctx{train: train} }

// reset empties c and its child tapes for the next pass, which reuses their
// arenas: no tensor or buffer of the last pass may be used after it. A tape
// reset step after step allocates nothing for its buffers once it has run
// its largest step.
func (c *ctx) reset() {
	clear(c.tape)
	c.tape = c.tape[:0]
	c.mem.reset()
	clear(c.hdr.buf) // drop the last pass's buffers, some of them from make
	c.hdr.reset()
	for _, f := range c.forks {
		f.reset()
	}
}

func (c *ctx) push(back func()) {
	c.tape = append(c.tape, back)
}

// fork gives c n child tapes whose backward passes run concurrently on up to
// workers goroutines. Call it before recording anything on c: backward
// replays c's own tape first, so c may only record ops that consume the
// children's outputs, and the children must share no tensor they write
// gradients into. A reset c keeps its children, arenas included.
func (c *ctx) fork(n, workers int) []*ctx {
	if len(c.forks) != n {
		c.forks = make([]*ctx, n)
		for i := range c.forks {
			c.forks[i] = newCtx(c.train)
		}
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

// slab is a bump arena: take hands out consecutive runs of buf, and reset
// starts over at its beginning. A pass that runs past the end gets the rest
// of its runs from make, and the reset after it replaces buf by one slice of
// the whole pass's size, so a slab holds the largest pass's footprint and
// nothing else: no free list, no per-size pool.
type slab[T any] struct {
	buf  []T
	used int // elements taken since the last reset, those past buf included
}

// take returns n elements as the last pass left them: the caller writes
// every one before it reads it.
func (s *slab[T]) take(n int) []T {
	lo := s.used
	s.used += n
	if s.used > len(s.buf) {
		return make([]T, n)
	}
	return s.buf[lo:s.used:s.used]
}

// zeros returns n elements set to their zero value (+0 for a float64), as
// make gives them.
func (s *slab[T]) zeros(n int) []T {
	v := s.take(n)
	clear(v)
	return v
}

func (s *slab[T]) reset() {
	if s.used > len(s.buf) {
		s.buf = make([]T, s.used)
	}
	s.used = 0
}

// constant returns an r x cols tensor from c's arenas that carries no
// gradient; the caller writes its Data in full.
func (c *ctx) constant(r, cols int) *tensor {
	t := &c.hdr.take(1)[0]
	*t = tensor{R: r, C: cols, Data: c.mem.take(r * cols)}
	return t
}

// alloc is constant with a gradient buffer, at +0.
func (c *ctx) alloc(r, cols int) *tensor {
	t := c.constant(r, cols)
	t.Grad = c.mem.zeros(r * cols)
	return t
}

// badShape reports a tensor-shape violation. Layer shapes are fixed by the
// model architecture at construction time, so a mismatch is a wiring bug in
// the calling code, never a runtime data condition; threading errors
// through every arithmetic op would bury the math under impossible-error
// plumbing.
func badShape(msg string) {
	panic(msg) //ppalint:ignore nopanic invariant assertion: layer shapes are fixed by the architecture, a mismatch is a wiring bug
}

// matMul returns a@b, recording the backward closure. A nil a.Grad marks a
// as a constant: the backward then computes only b's gradient.
func (c *ctx) matMul(a, b *tensor) *tensor {
	if a.C != b.R {
		badShape(fmt.Sprintf("gnn: matmul shape mismatch %v x %v", a, b))
	}
	out := c.alloc(a.R, b.C)
	clear(out.Data)
	matmulAcc(&c.mem, a.Data, b.Data, out.Data, a.R, a.C, b.C, false, false)
	c.push(func() {
		// dA += dOut @ B^T ; dB += A^T @ dOut
		if a.Grad != nil {
			matmulAcc(&c.mem, out.Grad, b.Data, a.Grad, a.R, b.C, a.C, false, true)
		}
		matmulAcc(&c.mem, a.Data, out.Grad, b.Grad, a.C, a.R, b.C, true, false)
	})
	return out
}

// matmulAcc accumulates out += op(A)@op(B). For ta=false, A is m x k; for
// ta=true, A is k x m. For tb=false, B is k x n; tb=true, B is n x k, and
// its transpose goes to a buffer from mem.
//
// Every output element adds its terms a·b one at a time in ascending p and
// skips a term whose a is zero, whatever the loop order. That sequence is
// what fixes the trained weights to the bit (TestFitBitIdentical), so the
// loops below may only reorder work across elements, never within one.
// rowAcc keeps it: each call adds a run of terms, in order, to one output
// row, which it holds in registers across the run.
func matmulAcc(mem *slab[float64], a, b, out []float64, m, k, n int, ta, tb bool) {
	if tb {
		// B is a weight (at most 64 x 64 here): one transpose turns the
		// strided reads into the row reads of the plain case.
		bt := mem.take(k * n)
		for j := 0; j < n; j++ {
			for p, v := range b[j*k : (j+1)*k] {
				bt[p*n+j] = v
			}
		}
		b = bt
	}
	if !ta {
		// Row i of out takes B's rows scaled by row i of A.
		for i := 0; i < m; i++ {
			rowAcc(out[i*n:(i+1)*n], a[i*k:], 1, k, b)
		}
		return
	}
	// Row i of out takes B's rows scaled by column i of A. Here k is the
	// node count and B an n-node gradient: the terms go in blocks of
	// termBlock rows of B, which stay in L1 while all m output rows take
	// them, block after block, so each element still adds its terms in
	// ascending p.
	for p0 := 0; p0 < k; p0 += termBlock {
		kb := min(termBlock, k-p0)
		for i := 0; i < m; i++ {
			rowAcc(out[i*n:(i+1)*n], a[p0*m+i:], m, kb, b[p0*n:])
		}
	}
}

// termBlock is matmulAcc's block of terms in the Aᵀ·B layout: 64 rows of a
// 64-column B are 32 KB.
const termBlock = 64

// addBias adds a row-vector bias to every row.
func (c *ctx) addBias(x, b *tensor) *tensor {
	if b.R != 1 || b.C != x.C {
		badShape("gnn: bias shape mismatch")
	}
	out := c.alloc(x.R, x.C)
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
	out := c.alloc(x.R, x.C)
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
	out := c.alloc(x.R, x.C)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
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
	out := c.alloc(1, x.C)
	clear(out.Data)
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

// spmm returns S @ x ([n x n] @ [n x d]), adding each row's entries one
// axpy at a time in stored order. S carries no gradient; the backward pass
// multiplies by S^T. A nil x.Grad marks x as a constant (the model input):
// then nothing is recorded and the output carries no gradient either.
func (c *ctx) spmm(s *sparse, x *tensor) *tensor {
	if s.N != x.R {
		badShape("gnn: spmm shape mismatch")
	}
	out := c.constant(x.R, x.C)
	clear(out.Data)
	d := x.C
	for i := 0; i < s.N; i++ {
		ov := out.Data[i*d : (i+1)*d]
		for k := s.start[i]; k < s.end[i]; k++ {
			col := s.col[k]
			axpy(ov, x.Data[col*d:(col+1)*d], s.val[k])
		}
	}
	if x.Grad == nil {
		return out
	}
	out.Grad = c.mem.zeros(len(out.Data))
	c.push(func() {
		for i := 0; i < s.N; i++ {
			og := out.Grad[i*d : (i+1)*d]
			for k := s.start[i]; k < s.end[i]; k++ {
				col := s.col[k]
				axpy(x.Grad[col*d:(col+1)*d], og, s.val[k])
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
