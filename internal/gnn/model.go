package gnn

import (
	"math"
	"math/rand"

	"ppaclust/internal/features"
	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/vpr"
)

// Architecture constants from the paper (Figure 4).
const (
	inputDim    = features.Dim // 35
	hiddenDim   = 64
	embedDim    = 32
	headDim     = 64
	numBranches = 4
)

// Model is the Total Cost predictor: four convolution branches whose outputs
// are accumulated, global mean pooling, then a two-layer head.
type Model struct {
	branches [numBranches][3]*convBlock
	head1    *linear
	headBN   *batchNorm
	head2    *linear

	// Input feature standardization (fit on the training set).
	featMean []float64
	featStd  []float64
	// Label standardization.
	labelMean, labelStd float64
}

// NewModel builds a freshly initialized model.
func NewModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{
		head1:    newLinear(embedDim, headDim, rng),
		headBN:   newBatchNorm(headDim),
		head2:    newLinear(headDim, 1, rng),
		featMean: make([]float64, inputDim),
		featStd:  onesVec(inputDim),
		labelStd: 1,
	}
	for b := 0; b < numBranches; b++ {
		m.branches[b][0] = newConvBlock(inputDim, hiddenDim, rng)
		m.branches[b][1] = newConvBlock(hiddenDim, hiddenDim, rng)
		m.branches[b][2] = newConvBlock(hiddenDim, embedDim, rng)
	}
	return m
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// params returns every learnable tensor.
func (m *Model) params() []*tensor {
	var out []*tensor
	for b := range m.branches {
		for _, blk := range m.branches[b] {
			out = append(out, blk.params()...)
		}
	}
	out = append(out, m.head1.params()...)
	out = append(out, m.headBN.params()...)
	out = append(out, m.head2.params()...)
	return out
}

// forward computes the standardized-cost prediction tensor for one graph.
// The four branches run side by side on up to workers goroutines, each on
// its own tape of c's, and read the same input; apart from it they share
// nothing — parameters, batch-norm running statistics and activations are
// all per branch — so the result is bit-identical at any worker count.
func (m *Model) forward(c *ctx, g *GraphInput, shape vpr.Shape, workers int) *tensor {
	x := m.inputTensor(c, g, shape)
	tapes := c.fork(numBranches, workers)
	var outs [numBranches]*tensor
	par.Blocks(workers, numBranches, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			h := x
			for _, blk := range m.branches[b] {
				h = blk.forward(tapes[b], g.s, h)
			}
			outs[b] = h
		}
	})
	acc := outs[0]
	for _, h := range outs[1:] {
		acc = c.add(acc, h)
	}
	emb := c.meanRows(acc)
	h := m.head1.forward(c, emb)
	h = m.headBN.forward(c, h)
	h = c.relu(h)
	return m.head2.forward(c, h)
}

// inputTensor builds the standardized node-feature matrix on c's arenas. It
// is a constant: no gradient flows back into the input, so the branches'
// first SpMM records no backward.
func (m *Model) inputTensor(c *ctx, g *GraphInput, shape vpr.Shape) *tensor {
	n := g.numNodes()
	x := c.constant(n, inputDim)
	row := c.mem.take(inputDim)
	for i := 0; i < n; i++ {
		g.f.NodeVec(i, shape.AspectRatio, shape.Utilization, row)
		for j := 0; j < inputDim; j++ {
			x.Data[i*inputDim+j] = (row[j] - m.featMean[j]) / m.featStd[j]
		}
	}
	return x
}

// GraphInput is one cluster graph prepared for the model. Build it with
// BuildGraphInput: s feeds the taped training forward, merged and rowSum feed
// inference, f feeds both.
type GraphInput struct {
	s *sparse
	f *features.Features

	merged *sparse   // S with duplicate entries summed
	rowSum []float64 // merged·1
}

// numNodes returns the node count.
func (g *GraphInput) numNodes() int { return g.f.NumCells }

// maxEdgePins bounds the hyperedges that enter the operator: a net with more
// distinct member cells is a global signal, and its clique would dominate
// both the operator's size and every node's neighbourhood.
const maxEdgePins = 64

// BuildGraphInput converts a cluster sub-netlist into the model's input:
// extracted features plus the normalized hypergraph propagation operator
//
//	S = 1/2 I + 1/2 D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}
//
// (clique-free hyperedge averaging with a self-connection for stability).
//
// Row u of S lists the self entry first, then, for every hyperedge containing
// u in net order, one entry per member in pin order. That order is part of
// the training contract: spmm sums entries as stored, so changing it would
// change trained weights in the last bits.
func BuildGraphInput(sub *netlist.Design, fopt features.Options) *GraphInput {
	f := features.Extract(sub, fopt)
	n := len(sub.Insts)
	// Hyperedges: nets with 2..maxEdgePins distinct member cells, flat.
	// stamp[v] == net index + 1 marks v as already seen on the current net.
	stamp := make([]int, n)
	edgeStart := []int{0}
	var edgeMem []int
	deg := make([]float64, n)
	rowCap := make([]int, n)
	for ni, net := range sub.Nets {
		first := len(edgeMem)
		for _, pr := range net.Pins {
			if !pr.IsPort() && stamp[pr.Inst] != ni+1 {
				stamp[pr.Inst] = ni + 1
				edgeMem = append(edgeMem, pr.Inst)
			}
		}
		size := len(edgeMem) - first
		if size < 2 || size > maxEdgePins {
			edgeMem = edgeMem[:first]
			continue
		}
		edgeStart = append(edgeStart, len(edgeMem))
		for _, v := range edgeMem[first:] {
			deg[v]++
			rowCap[v] += size
		}
	}
	invSqrt := make([]float64, n)
	for i := range invSqrt {
		rowCap[i]++ // self entry
		if deg[i] > 0 {
			invSqrt[i] = 1 / math.Sqrt(deg[i])
		}
	}
	s := newSparse(rowCap)
	for i := 0; i < n; i++ {
		s.add(i, i, 0.5)
	}
	for e := 0; e+1 < len(edgeStart); e++ {
		members := edgeMem[edgeStart[e]:edgeStart[e+1]]
		de := float64(len(members))
		for _, u := range members {
			for _, v := range members {
				s.add(u, v, 0.5*invSqrt[u]*invSqrt[v]/de)
			}
		}
	}
	merged, rowSum := coalesce(s)
	return &GraphInput{s: s, f: f, merged: merged, rowSum: rowSum}
}
