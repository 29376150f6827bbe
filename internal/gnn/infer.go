package gnn

import (
	"math"

	"ppaclust/internal/par"
	"ppaclust/internal/vpr"
)

// Inference kernel. Every prediction — Evaluate, PredictBestShape* — runs
// through inference.cost; the taped forward in
// model.go exists for Fit alone. The kernel computes the same function as the
// taped forward with a different order of floating-point operations, so the
// two agree to rounding (tests hold them to 1e-9 relative), not bit for bit;
// bit-identity is promised between inference runs, at any worker count.
//
// Three things make it cheap (DESIGN.md §17 has the algebra):
//
//   - Per graph (BuildGraphInput): S's duplicate entries are merged and its
//     row sums r = S·1 are kept.
//   - Per (model, graph) (prepare): of the 35 standardized input columns only
//     utilization and aspect ratio depend on the shape, and both are constant
//     over nodes, so layer 1's pre-activation S·X·W1 splits into a shape-free
//     part A = (S·X[:,2:])·W1[2:,:], computed once, and the rank-1 update
//     r ⊗ (u'·W1[0,:] + ar'·W1[1,:]).
//   - Per shape (cost): layers 2-3 run on caller-owned scratch with no tape
//     and no gradient buffers; bias, graph normalization, ReLU and the skip
//     connection are one pass; layer 3 applies W3 (64→32) before S, halving
//     its SpMM; and the last block is reduced straight to its column sums,
//     which is all mean pooling needs.

// shapeCols is the number of leading feature columns that depend on the
// candidate shape (features.NodeVec: utilization, aspect ratio).
const shapeCols = 2

// coalesce returns s with duplicate (row, column) entries merged, and the
// merged matrix's row sums. Entries keep the order of their first appearance
// within the row and duplicates are summed in stored order, so the result is a
// pure function of s.
func coalesce(s *sparse) (*sparse, []float64) {
	n := s.N
	// slot[j] is where column j sits in the row being scanned; it is current
	// when it is not below the row's first slot, which no earlier row's slots
	// reach.
	slot := make([]int, n)
	for j := range slot {
		slot[j] = -1
	}
	rowCap := make([]int, n)
	distinct := 0
	for i := 0; i < n; i++ {
		first := distinct
		for k := s.start[i]; k < s.end[i]; k++ {
			if j := s.col[k]; slot[j] < first {
				slot[j] = distinct
				distinct++
			}
		}
		rowCap[i] = distinct - first
	}
	m := newSparse(rowCap)
	for j := range slot {
		slot[j] = -1
	}
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := s.start[i]; k < s.end[i]; k++ {
			j := s.col[k]
			if slot[j] < m.start[i] {
				slot[j] = m.end[i]
				m.add(i, j, s.val[k])
			} else {
				m.val[slot[j]] += s.val[k]
			}
		}
		var sum float64
		for _, v := range m.val[m.start[i]:m.end[i]] {
			sum += v
		}
		rowSum[i] = sum
	}
	return m, rowSum
}

// relu is max(0, y) without a branch: activations are negative about half the
// time, which a conditional mispredicts and math.Max pays for in special
// cases. (y+|y|)/2 is exact for every finite y below half the float range.
func relu(y float64) float64 { return 0.5 * (y + math.Abs(y)) }

// axpy accumulates o += a*x.
func axpy(o, x []float64, a float64) {
	x = x[:len(o)]
	for j := range o {
		o[j] += a * x[j]
	}
}

// axpy4 accumulates o += a0*x0 + a1*x1 + a2*x2 + a3*x3. Folding four updates
// into one pass over o is what the GEMM and SpMM below are built from: it
// quarters the loads and stores of the output row.
func axpy4(o, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	x0, x1, x2, x3 = x0[:len(o)], x1[:len(o)], x2[:len(o)], x3[:len(o)]
	for j := range o {
		o[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j]
	}
}

// gemm computes out = a@w for row-major a (m x k), w (k x n), out (m x n).
func gemm(a, w, out []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		o := out[i*n : (i+1)*n]
		for j := range o {
			o[j] = 0
		}
		ar := a[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			axpy4(o, w[p*n:], w[(p+1)*n:], w[(p+2)*n:], w[(p+3)*n:],
				ar[p], ar[p+1], ar[p+2], ar[p+3])
		}
		for ; p < k; p++ {
			axpy(o, w[p*n:], ar[p])
		}
	}
}

// mul computes out = S@x for x and out with d columns, tape-free.
func (s *sparse) mul(x, out []float64, d int) {
	for i := 0; i < s.N; i++ {
		o := out[i*d : (i+1)*d]
		for j := range o {
			o[j] = 0
		}
		k, end := s.start[i], s.end[i]
		for ; k+4 <= end; k += 4 {
			c, v := s.col[k:k+4], s.val[k:k+4]
			axpy4(o, x[c[0]*d:], x[c[1]*d:], x[c[2]*d:], x[c[3]*d:], v[0], v[1], v[2], v[3])
		}
		for ; k < end; k++ {
			axpy(o, x[s.col[k]*d:], s.val[k])
		}
	}
}

// inference is the shape-independent part of a prediction for one
// (model, graph) pair. It snapshots nothing but layer 1: the remaining
// weights are read from the model at cost time, so it must not outlive a
// change to the model's parameters. It is read-only after prepare and safe
// for concurrent cost calls on distinct scratch.
type inference struct {
	m *Model
	g *GraphInput
	n int
	// a[b] = (S·X[:,2:])·W1_b[2:,:], n x hiddenDim, without bias.
	a [numBranches][]float64
}

// prepare builds the per-(model, graph) state.
func (m *Model) prepare(g *GraphInput) *inference {
	n := g.numNodes()
	inf := &inference{m: m, g: g, n: n}
	const rest = inputDim - shapeCols
	x := make([]float64, n*rest)
	var row [inputDim]float64
	for i := 0; i < n; i++ {
		g.f.NodeVec(i, 0, 0, row[:])
		xr := x[i*rest : (i+1)*rest]
		for j := range xr {
			xr[j] = (row[shapeCols+j] - m.featMean[shapeCols+j]) / m.featStd[shapeCols+j]
		}
	}
	sx := make([]float64, n*rest)
	g.merged.mul(x, sx, rest)
	buf := make([]float64, numBranches*n*hiddenDim)
	for b := range inf.a {
		inf.a[b] = buf[b*n*hiddenDim : (b+1)*n*hiddenDim]
		w1 := m.branches[b][0].Lin.W.Data
		gemm(sx, w1[shapeCols*hiddenDim:], inf.a[b], n, rest, hiddenDim)
	}
	return inf
}

// scratch is one worker's activation storage for inference.cost.
type scratch struct {
	h, p, z []float64 // n x hiddenDim each

	mean, scale [hiddenDim]float64
	v           [hiddenDim]float64
	emb         [embedDim]float64
	head        [headDim]float64
}

func newScratch(n int) *scratch {
	buf := make([]float64, 3*n*hiddenDim)
	return &scratch{
		h: buf[:n*hiddenDim],
		p: buf[n*hiddenDim : 2*n*hiddenDim],
		z: buf[2*n*hiddenDim:],
	}
}

// normalizer fills sc.mean and sc.scale so that the block's
// BN(z + bias) equals (z - mean)*scale + Beta for the bias-free n x d
// pre-activation z. With more than one row the statistics are the graph's own
// and the bias cancels; otherwise they are the running estimates, as in
// batchNorm.forward.
func (sc *scratch) normalizer(blk *convBlock, z []float64, n, d int) {
	mean, scale := sc.mean[:d], sc.scale[:d]
	bn := blk.BN
	if n <= 1 {
		for j := range mean {
			mean[j] = bn.RunMean[j] - blk.Lin.B.Data[j]
			scale[j] = bn.Gamma.Data[j] / math.Sqrt(bn.RunVar[j]+bn.Eps)
		}
		return
	}
	inv := 1 / float64(n)
	for j := range mean {
		mean[j] = 0
	}
	for i := 0; i < n; i++ {
		axpy(mean, z[i*d:], inv)
	}
	variance := scale
	for j := range variance {
		variance[j] = 0
	}
	for i := 0; i < n; i++ {
		zr := z[i*d : (i+1)*d]
		for j, m := range mean {
			dv := zr[j] - m
			variance[j] += dv * dv * inv
		}
	}
	for j, v := range variance {
		scale[j] = bn.Gamma.Data[j] / math.Sqrt(v+bn.Eps)
	}
}

// cost returns the predicted Total Cost at one shape. It allocates nothing;
// sc must come from newScratch(inf.n) and is overwritten.
func (inf *inference) cost(sc *scratch, shape vpr.Shape) float64 {
	m, n := inf.m, inf.n
	u := (shape.Utilization - m.featMean[0]) / m.featStd[0]
	ar := (shape.AspectRatio - m.featMean[1]) / m.featStd[1]
	r := inf.g.rowSum
	emb := sc.emb[:]
	for j := range emb {
		emb[j] = 0
	}
	for b := range m.branches {
		blk := m.branches[b]

		// Layer 1: z = A + r ⊗ v, then normalize + ReLU in place.
		w1 := blk[0].Lin.W.Data
		v := sc.v[:]
		for j := range v {
			v[j] = u*w1[j] + ar*w1[hiddenDim+j]
		}
		h, a := sc.h, inf.a[b]
		for i := 0; i < n; i++ {
			hr := h[i*hiddenDim : (i+1)*hiddenDim]
			arow, ri := a[i*hiddenDim:(i+1)*hiddenDim], r[i]
			for j := range hr {
				hr[j] = arow[j] + ri*v[j]
			}
		}
		sc.normalizer(blk[0], h, n, hiddenDim)
		beta := blk[0].BN.Beta.Data
		for i := 0; i < n; i++ {
			hr := h[i*hiddenDim : (i+1)*hiddenDim]
			for j, x := range hr {
				hr[j] = relu((x-sc.mean[j])*sc.scale[j] + beta[j])
			}
		}

		// Layer 2: z = (S·h)·W2, normalize + ReLU + skip in place.
		inf.g.merged.mul(h, sc.p, hiddenDim)
		z := sc.z
		gemm(sc.p, blk[1].Lin.W.Data, z, n, hiddenDim, hiddenDim)
		sc.normalizer(blk[1], z, n, hiddenDim)
		beta = blk[1].BN.Beta.Data
		for i := 0; i < n; i++ {
			zr := z[i*hiddenDim : (i+1)*hiddenDim]
			hr := h[i*hiddenDim : (i+1)*hiddenDim]
			for j, x := range zr {
				zr[j] = relu((x-sc.mean[j])*sc.scale[j]+beta[j]) + hr[j]
			}
		}

		// Layer 3: z = S·(h2·W3) — W3 first, so S runs on embedDim columns —
		// then normalize + ReLU reduced directly to column sums.
		q := sc.p[:n*embedDim]
		gemm(z, blk[2].Lin.W.Data, q, n, hiddenDim, embedDim)
		z3 := sc.h[:n*embedDim]
		inf.g.merged.mul(q, z3, embedDim)
		sc.normalizer(blk[2], z3, n, embedDim)
		beta = blk[2].BN.Beta.Data
		for i := 0; i < n; i++ {
			zr := z3[i*embedDim : (i+1)*embedDim]
			for j, x := range zr {
				emb[j] += relu((x-sc.mean[j])*sc.scale[j] + beta[j])
			}
		}
	}
	if n > 0 {
		inv := 1 / float64(n)
		for j := range emb {
			emb[j] *= inv
		}
	}

	// Head: linear → BN on running statistics (one row) → ReLU → linear.
	hd := sc.head[:]
	copy(hd, m.head1.B.Data)
	for p, e := range emb {
		axpy(hd, m.head1.W.Data[p*headDim:], e)
	}
	bn := m.headBN
	out := m.head2.B.Data[0]
	for j, x := range hd {
		y := (x-bn.RunMean[j])/math.Sqrt(bn.RunVar[j]+bn.Eps)*bn.Gamma.Data[j] + bn.Beta.Data[j]
		out += relu(y) * m.head2.W.Data[j]
	}
	return out*m.labelStd + m.labelMean
}

// shapeCosts evaluates every candidate on one graph, spreading them over the
// worker budget in contiguous blocks with one scratch per block. Each cost is
// computed independently of the others, so the slice is bit-identical at any
// worker count.
func (m *Model) shapeCosts(g *GraphInput, cands []vpr.Shape, workers int) []float64 {
	inf := m.prepare(g)
	costs := make([]float64, len(cands))
	par.Blocks(par.Workers(workers), len(cands), func(_, lo, hi int) {
		sc := newScratch(inf.n)
		for i := lo; i < hi; i++ {
			costs[i] = inf.cost(sc, cands[i])
		}
	})
	return costs
}

// PredictBestShape is PredictBestShapeWorkers with the automatic worker
// budget (PPACLUST_WORKERS, else GOMAXPROCS).
func (m *Model) PredictBestShape(g *GraphInput) vpr.Shape {
	return m.PredictBestShapeWorkers(g, 0)
}

// PredictBestShapeWorkers evaluates all 20 candidates on one graph and
// returns the arg-min shape, the accelerated path of Figure 3. Costs are
// reduced in candidate order — the first candidate with the lowest cost wins,
// a NaN cost never does — so the choice does not depend on workers. A graph
// without nodes has nothing to place and gets vpr.UniformShape, as does one
// on which no candidate has a comparable cost; a one-node graph is evaluated
// like any other (its normalization falls back to running statistics).
func (m *Model) PredictBestShapeWorkers(g *GraphInput, workers int) vpr.Shape {
	if g.numNodes() == 0 {
		return vpr.UniformShape
	}
	cands := vpr.ShapeCandidates()
	return argminShape(cands, m.shapeCosts(g, cands, workers))
}

func argminShape(cands []vpr.Shape, costs []float64) vpr.Shape {
	best := vpr.UniformShape
	bestCost := math.Inf(1)
	for i, c := range costs {
		if c < bestCost {
			bestCost = c
			best = cands[i]
		}
	}
	return best
}
