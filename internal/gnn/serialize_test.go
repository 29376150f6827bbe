package gnn

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ppaclust/internal/vpr"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	samples := toySamples(t, 40, 91)
	m := NewModel(3)
	m.Fit(samples, TrainOptions{Epochs: 3, Seed: 1})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must match bit-for-bit.
	for _, s := range samples[:5] {
		want := predictOne(m, s.Graph, s.Shape)
		got := predictOne(loaded, s.Graph, s.Shape)
		if want != got {
			t.Fatalf("prediction drift after load: %v != %v", got, want)
		}
	}
	// Best-shape selection agrees too.
	if m.PredictBestShape(samples[0].Graph) != loaded.PredictBestShape(samples[0].Graph) {
		t.Fatal("best-shape drift after load")
	}
	_ = vpr.Shape{}
}

// TestLoadRejectsGarbage: a file that is not a model, a truncated one, and
// one whose values can only predict NaN all fail to load, the last with an
// error naming the vector.
func TestLoadRejectsGarbage(t *testing.T) {
	saved := func(edit func(m *Model)) []byte {
		m := NewModel(1)
		edit(m)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := saved(func(*Model) {})
	for _, tc := range []struct {
		name string
		file []byte
		want string // in the error
	}{
		{"bad magic", []byte("not a model file at all"), "magic"},
		{"truncated", good[:len(good)/2], ""},
		// Params() lists the 4 branches x 3 blocks x 4 tensors first.
		{"NaN weight", saved(func(m *Model) { m.head1.W.Data[5] = math.NaN() }), "parameter 48[5]"},
		{"Inf RunVar", saved(func(m *Model) { m.branches[1][2].BN.RunVar[0] = math.Inf(1) }), "batch-norm 5 RunVar[0]"},
		{"zero featStd", saved(func(m *Model) { m.featStd[7] = 0 }), "featStd[7]"},
		{"negative labelStd", saved(func(m *Model) { m.labelStd = -1 }), "labelStd"},
	} {
		_, err := LoadModel(bytes.NewReader(tc.file))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadModel error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := LoadModel(bytes.NewReader(good)); err != nil {
		t.Fatalf("untouched model: %v", err)
	}
}
