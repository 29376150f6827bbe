package gnn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary model serialization: a magic header, the architecture constants
// (validated on load), then every parameter tensor, batch-norm running
// statistic and normalization vector in a fixed order. This lets a flow
// train the Total Cost predictor once and reuse it across runs, the
// "one-time training cost" the paper's conclusion highlights.

const modelMagic = "PPACLUST-GNN-1\n"

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	if _, err := io.WriteString(w, modelMagic); err != nil {
		return err
	}
	dims := []int64{InputDim, HiddenDim, EmbedDim, HeadDim, Branches}
	for _, v := range dims {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, t := range m.Params() {
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

// LoadModel reads a model previously written by Save.
func LoadModel(r io.Reader) (*Model, error) {
	magic := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("gnn: reading magic: %w", err)
	}
	if string(magic) != modelMagic {
		return nil, fmt.Errorf("gnn: bad model file magic %q", magic)
	}
	dims := make([]int64, 5)
	for i := range dims {
		if err := binary.Read(r, binary.LittleEndian, &dims[i]); err != nil {
			return nil, err
		}
	}
	want := []int64{InputDim, HiddenDim, EmbedDim, HeadDim, Branches}
	for i := range want {
		if dims[i] != want[i] {
			return nil, fmt.Errorf("gnn: model dims %v incompatible with build %v", dims, want)
		}
	}
	m := NewModel(0)
	for _, t := range m.Params() {
		if err := readFloats(r, t.Data); err != nil {
			return nil, err
		}
	}
	for _, bn := range m.batchNorms() {
		if err := readFloats(r, bn.RunMean); err != nil {
			return nil, err
		}
		if err := readFloats(r, bn.RunVar); err != nil {
			return nil, err
		}
		bn.initialized = true
	}
	if err := readFloats(r, m.featMean); err != nil {
		return nil, err
	}
	if err := readFloats(r, m.featStd); err != nil {
		return nil, err
	}
	tail := make([]float64, 2)
	if err := readFloats(r, tail); err != nil {
		return nil, err
	}
	m.labelMean, m.labelStd = tail[0], tail[1]
	if err := m.checkUsable(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkUsable rejects a model that can only predict NaN: a non-finite
// weight, running statistic or standardization value, or a standard
// deviation that is not positive. Every cost would come out NaN, and
// PredictBestShape would quietly pick vpr.UniformShape for every cluster.
func (m *Model) checkUsable() error {
	type vec struct {
		name     string
		vs       []float64
		positive bool
	}
	var vecs []vec
	for i, t := range m.Params() {
		vecs = append(vecs, vec{fmt.Sprintf("parameter %d", i), t.Data, false})
	}
	for i, bn := range m.batchNorms() {
		vecs = append(vecs, vec{fmt.Sprintf("batch-norm %d RunMean", i), bn.RunMean, false},
			vec{fmt.Sprintf("batch-norm %d RunVar", i), bn.RunVar, false})
	}
	vecs = append(vecs, vec{"featMean", m.featMean, false}, vec{"featStd", m.featStd, true},
		vec{"labelMean", []float64{m.labelMean}, false}, vec{"labelStd", []float64{m.labelStd}, true})
	for _, v := range vecs {
		for i, x := range v.vs {
			if math.IsNaN(x) || math.IsInf(x, 0) || v.positive && x <= 0 {
				return fmt.Errorf("gnn: model %s[%d] = %v", v.name, i, x)
			}
		}
	}
	return nil
}

// batchNorms enumerates every batch-norm layer in deterministic order.
func (m *Model) batchNorms() []*BatchNorm {
	var out []*BatchNorm
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

func readFloats(r io.Reader, vs []float64) error {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if int(n) != len(vs) {
		return fmt.Errorf("gnn: vector length %d, expected %d", n, len(vs))
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}
