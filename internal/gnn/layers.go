package gnn

import (
	"math"
	"math/rand"
)

// linear is a fully connected layer y = xW + b.
type linear struct {
	W *tensor
	B *tensor
}

// newLinear builds a Glorot-initialized linear layer.
func newLinear(in, out int, rng *rand.Rand) *linear {
	l := &linear{W: newParam(in, out, rng), B: newTensor(1, out)}
	l.B.param = true
	return l
}

// forward applies the layer.
func (l *linear) forward(c *ctx, x *tensor) *tensor {
	return c.addBias(c.matMul(x, l.W), l.B)
}

// params returns the learnable tensors.
func (l *linear) params() []*tensor { return []*tensor{l.W, l.B} }

// batchNorm normalizes each feature column over the rows of the batch
// (the nodes of the graph), with learnable scale/shift and running
// statistics for inference.
type batchNorm struct {
	Gamma, Beta     *tensor
	RunMean, RunVar []float64
	Momentum, Eps   float64
	initialized     bool
}

// newBatchNorm builds a batch-norm layer over dim features.
func newBatchNorm(dim int) *batchNorm {
	bn := &batchNorm{
		Gamma:    newTensor(1, dim),
		Beta:     newTensor(1, dim),
		RunMean:  make([]float64, dim),
		RunVar:   make([]float64, dim),
		Momentum: 0.1,
		Eps:      1e-5,
	}
	bn.Gamma.param = true
	bn.Beta.param = true
	for i := range bn.Gamma.Data {
		bn.Gamma.Data[i] = 1
		bn.RunVar[i] = 1
	}
	return bn
}

// params returns the learnable tensors.
func (bn *batchNorm) params() []*tensor { return []*tensor{bn.Gamma, bn.Beta} }

// forward normalizes x over the rows of the current graph whenever more
// than one row is present — in both training and inference. Because each
// "batch" is a single cluster graph, using the graph's own statistics at
// inference keeps train/eval behavior identical (the GraphNorm convention);
// running estimates are still tracked and used for 1-row inputs (the
// prediction head), where batch statistics are undefined.
func (bn *batchNorm) forward(c *ctx, x *tensor) *tensor {
	n, d := x.R, x.C
	mean := make([]float64, d)
	variance := make([]float64, d)
	if n > 1 {
		inv := 1 / float64(n)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				mean[j] += x.Data[i*d+j] * inv
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				dv := x.Data[i*d+j] - mean[j]
				variance[j] += dv * dv * inv
			}
		}
		if c.train {
			m := bn.Momentum
			if !bn.initialized {
				m = 1
				bn.initialized = true
			}
			for j := 0; j < d; j++ {
				bn.RunMean[j] = (1-m)*bn.RunMean[j] + m*mean[j]
				bn.RunVar[j] = (1-m)*bn.RunVar[j] + m*variance[j]
			}
		}
	} else {
		copy(mean, bn.RunMean)
		copy(variance, bn.RunVar)
	}
	invStd := make([]float64, d)
	for j := 0; j < d; j++ {
		invStd[j] = 1 / math.Sqrt(variance[j]+bn.Eps)
	}
	xhat := make([]float64, n*d)
	out := newTensor(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			h := (x.Data[i*d+j] - mean[j]) * invStd[j]
			xhat[i*d+j] = h
			out.Data[i*d+j] = bn.Gamma.Data[j]*h + bn.Beta.Data[j]
		}
	}
	useBatchStats := n > 1
	c.push(func() {
		if !useBatchStats {
			// Running-stat normalization is a per-element affine map.
			for i := 0; i < n; i++ {
				for j := 0; j < d; j++ {
					g := out.Grad[i*d+j]
					bn.Gamma.Grad[j] += g * xhat[i*d+j]
					bn.Beta.Grad[j] += g
					x.Grad[i*d+j] += g * bn.Gamma.Data[j] * invStd[j]
				}
			}
			return
		}
		// Full batch-norm backward.
		invN := 1 / float64(n)
		for j := 0; j < d; j++ {
			var sumG, sumGH float64
			for i := 0; i < n; i++ {
				g := out.Grad[i*d+j]
				sumG += g
				sumGH += g * xhat[i*d+j]
				bn.Gamma.Grad[j] += g * xhat[i*d+j]
				bn.Beta.Grad[j] += g
			}
			for i := 0; i < n; i++ {
				g := out.Grad[i*d+j]
				x.Grad[i*d+j] += bn.Gamma.Data[j] * invStd[j] *
					(g - sumG*invN - xhat[i*d+j]*sumGH*invN)
			}
		}
	})
	return out
}

// convBlock is one hypergraph-convolution block: propagate, transform,
// normalize, activate, with a skip connection when dimensions match.
type convBlock struct {
	Lin  *linear
	BN   *batchNorm
	Skip bool
}

// newConvBlock builds a block; skip connections activate when in == out
// (as in the paper).
func newConvBlock(in, out int, rng *rand.Rand) *convBlock {
	return &convBlock{
		Lin:  newLinear(in, out, rng),
		BN:   newBatchNorm(out),
		Skip: in == out,
	}
}

// forward applies the block to node features x under propagation operator s.
func (b *convBlock) forward(c *ctx, s *sparse, x *tensor) *tensor {
	h := c.spmm(s, x)
	h = b.Lin.forward(c, h)
	h = b.BN.forward(c, h)
	h = c.relu(h)
	if b.Skip {
		h = c.add(h, x)
	}
	return h
}

// params returns the learnable tensors.
func (b *convBlock) params() []*tensor {
	return append(b.Lin.params(), b.BN.params()...)
}
