package gnn

import (
	"bytes"
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

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not a model file at all")); err == nil {
		t.Fatal("expected magic error")
	}
	var buf bytes.Buffer
	m := NewModel(1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncated stream fails cleanly.
	if _, err := LoadModel(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("expected truncation error")
	}
}
