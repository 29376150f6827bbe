package gnn

import (
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/par"
	"ppaclust/internal/vpr"
)

func benchGraph(b *testing.B) *GraphInput {
	b.Helper()
	bench := designs.Generate(designs.TinySpec(500))
	return BuildGraphInput(bench.Design, features.Options{Seed: 1})
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
// branches one after the other and at the automatic worker budget.
func BenchmarkTrainStep(b *testing.B) {
	g := benchGraph(b)
	shape := vpr.Shape{AspectRatio: 1.25, Utilization: 0.8}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"W=1", 1}, {"auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewModel(2)
			optim := newAdam(m.params(), 1e-3)
			workers := par.Workers(bc.workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := newCtx(true)
				out := m.forward(c, g, shape, workers)
				c.mse(out, 1.0)
				c.backward()
				optim.step()
			}
		})
	}
}
