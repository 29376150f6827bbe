package gnn

import (
	"encoding/binary"
	"io"
	"math"
)

// Model serialization, kept for the tests that pin trained weights: Save
// writes a magic header, the architecture constants, then every parameter
// tensor, batch-norm running statistic and normalization vector in a fixed
// order, so two models are bit-identical exactly when their Save bytes are.

const modelMagic = "PPACLUST-GNN-1\n"

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	if _, err := io.WriteString(w, modelMagic); err != nil {
		return err
	}
	dims := []int64{inputDim, hiddenDim, embedDim, headDim, numBranches}
	for _, v := range dims {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, t := range m.params() {
		if err := writeFloats(w, t.Data); err != nil {
			return err
		}
	}
	for _, bn := range m.batchNorms() {
		if err := writeFloats(w, bn.RunMean); err != nil {
			return err
		}
		if err := writeFloats(w, bn.RunVar); err != nil {
			return err
		}
	}
	if err := writeFloats(w, m.featMean); err != nil {
		return err
	}
	if err := writeFloats(w, m.featStd); err != nil {
		return err
	}
	return writeFloats(w, []float64{m.labelMean, m.labelStd})
}

// batchNorms enumerates every batch-norm layer in deterministic order.
func (m *Model) batchNorms() []*batchNorm {
	var out []*batchNorm
	for b := range m.branches {
		for _, blk := range m.branches[b] {
			out = append(out, blk.BN)
		}
	}
	return append(out, m.headBN)
}

func writeFloats(w io.Writer, vs []float64) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(vs))); err != nil {
		return err
	}
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}
