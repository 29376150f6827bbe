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
	InputDim  = features.Dim // 35
	HiddenDim = 64
	EmbedDim  = 32
	HeadDim   = 64
	Branches  = 4
)

// Model is the Total Cost predictor: four convolution branches whose outputs
// are accumulated, global mean pooling, then a two-layer head.
type Model struct {
	branches [Branches][3]*ConvBlock
	head1    *Linear
	headBN   *BatchNorm
	head2    *Linear

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
		head1:    NewLinear(EmbedDim, HeadDim, rng),
		headBN:   NewBatchNorm(HeadDim),
		head2:    NewLinear(HeadDim, 1, rng),
		featMean: make([]float64, InputDim),
		featStd:  onesVec(InputDim),
		labelStd: 1,
	}
	for b := 0; b < Branches; b++ {
		m.branches[b][0] = NewConvBlock(InputDim, HiddenDim, rng)
		m.branches[b][1] = NewConvBlock(HiddenDim, HiddenDim, rng)
		m.branches[b][2] = NewConvBlock(HiddenDim, EmbedDim, rng)
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

// Params returns every learnable tensor.
func (m *Model) Params() []*Tensor {
	var out []*Tensor
	for b := range m.branches {
		for _, blk := range m.branches[b] {
			out = append(out, blk.Params()...)
		}
	}
	out = append(out, m.head1.Params()...)
	out = append(out, m.headBN.Params()...)
	out = append(out, m.head2.Params()...)
	return out
}

// forward computes the standardized-cost prediction tensor for one graph.
// The four branches run side by side on up to workers goroutines, each on
// its own tape of c's, and read the same input; apart from it they share
// nothing — parameters, batch-norm running statistics and activations are
// all per branch — so the result is bit-identical at any worker count.
func (m *Model) forward(c *Ctx, g *GraphInput, shape vpr.Shape, workers int) *Tensor {
	x := m.inputTensor(g, shape)
	tapes := c.fork(Branches, workers)
	var outs [Branches]*Tensor
	par.Blocks(workers, Branches, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			// Every branch's first SpMM backward writes the input's
			// gradient, which nothing reads: each gets a buffer of its own.
			h := &Tensor{R: x.R, C: x.C, Data: x.Data, Grad: make([]float64, len(x.Data))}
			for _, blk := range m.branches[b] {
				h = blk.Forward(tapes[b], g.S, h)
			}
			outs[b] = h
		}
	})
	acc := outs[0]
	for _, h := range outs[1:] {
		acc = c.Add(acc, h)
	}
	emb := c.MeanRows(acc)
	h := m.head1.Forward(c, emb)
	h = m.headBN.Forward(c, h)
	h = c.ReLU(h)
	return m.head2.Forward(c, h)
}

// inputTensor builds the standardized node-feature matrix. It carries no
// gradient buffer: forward gives each branch its own.
func (m *Model) inputTensor(g *GraphInput, shape vpr.Shape) *Tensor {
	n := g.NumNodes()
	x := &Tensor{R: n, C: InputDim, Data: make([]float64, n*InputDim)}
	row := make([]float64, InputDim)
	for i := 0; i < n; i++ {
		g.F.NodeVec(i, shape.AspectRatio, shape.Utilization, row)
		for j := 0; j < InputDim; j++ {
			x.Data[i*InputDim+j] = (row[j] - m.featMean[j]) / m.featStd[j]
		}
	}
	return x
}

// GraphInput is one cluster graph prepared for the model. Build it with
// BuildGraphInput: S feeds the taped training forward, the unexported fields
// feed inference.
type GraphInput struct {
	S *Sparse
	F *features.Features

	merged *Sparse   // S with duplicate entries summed
	rowSum []float64 // merged·1
}

// NumNodes returns the node count.
func (g *GraphInput) NumNodes() int { return g.F.NumCells }

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
// the training contract: SpMM sums entries as stored, so changing it would
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
	s := NewSparse(rowCap)
	for i := 0; i < n; i++ {
		s.Add(i, i, 0.5)
	}
	for e := 0; e+1 < len(edgeStart); e++ {
		members := edgeMem[edgeStart[e]:edgeStart[e+1]]
		de := float64(len(members))
		for _, u := range members {
			for _, v := range members {
				s.Add(u, v, 0.5*invSqrt[u]*invSqrt[v]/de)
			}
		}
	}
	merged, rowSum := coalesce(s)
	return &GraphInput{S: s, F: f, merged: merged, rowSum: rowSum}
}
