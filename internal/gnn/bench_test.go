package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ppaclust/internal/par"
	"ppaclust/internal/vpr"
)

// benchGraph is an ariane PPA cluster (~1.6k nodes), the size of graph the
// flow's shape prediction runs on.
func benchGraph(b *testing.B) *GraphInput {
	b.Helper()
	return ppaCluster(b, "ariane")
}

// BenchmarkGemm measures the two dense products of conv blocks 2 and 3,
// n x 64 · 64 x 64 and n x 64 · 64 x 32, at n = 1200 rows, in multiply-adds
// per second.
func BenchmarkGemm(b *testing.B) {
	const m, k = 1200, hiddenDim
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, m*k)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for _, n := range []int{hiddenDim, embedDim} {
		w := make([]float64, k*n)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		out := make([]float64, m*n)
		b.Run(fmt.Sprintf("%dx%d", k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm(a, w, out, m, k, n)
			}
			b.ReportMetric(float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds(), "madd/s")
		})
	}
}

// BenchmarkPredictBestShape measures the flow's unit of inference work: all
// 20 candidates on one graph, sequentially and at the automatic worker budget.
func BenchmarkPredictBestShape(b *testing.B) {
	g := benchGraph(b)
	m := NewModel(1)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"W=1", 1}, {"auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchShape = m.PredictBestShapeWorkers(g, bc.workers)
			}
		})
	}
}

var benchShape vpr.Shape

// BenchmarkTrainStep measures one forward+backward+Adam step, with the four
// branches one after the other and at the automatic worker budget, on one
// tape reset step after step as Fit runs it: B/op is what a step allocates
// once the tape's arenas have grown.
func BenchmarkTrainStep(b *testing.B) {
	g := benchGraph(b)
	s := Sample{Graph: g, Shape: vpr.Shape{AspectRatio: 1.25, Utilization: 0.8}, Label: 1}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"W=1", 1}, {"auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewModel(2)
			optim := newAdam(m.params(), 1e-3)
			workers := par.Workers(bc.workers)
			c := newCtx(true)
			m.step(c, optim, s, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.step(c, optim, s, workers)
			}
		})
	}
}

// BenchmarkFit measures one training epoch at the automatic worker budget
// over 48 samples: the aes, jpeg and ariane PPA clusters (~0.7k, ~1.3k and
// ~1.6k nodes), each under the first 16 candidate shapes with a smooth
// synthetic label. It is the kernel behind the repository benchmark's
// tables-ml set-up time, which is almost all GNN training.
func BenchmarkFit(b *testing.B) {
	var samples []Sample
	for _, name := range []string{"aes", "jpeg", "ariane"} {
		g := ppaCluster(b, name)
		for _, shape := range vpr.ShapeCandidates()[:16] {
			label := 1 + math.Abs(shape.AspectRatio-1) + shape.Utilization + 0.1*math.Log(float64(g.numNodes()))
			samples = append(samples, Sample{Graph: g, Shape: shape, Label: label})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewModel(1).Fit(samples, TrainOptions{Epochs: 1, Seed: 1})
	}
}
