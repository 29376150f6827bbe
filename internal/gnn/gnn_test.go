package gnn

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/vpr"
)

func TestMatMulForward(t *testing.T) {
	a := newTensor(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := newTensor(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := newCtx(false)
	out := c.matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if math.Abs(out.Data[i]-v) > 1e-12 {
			t.Fatalf("matmul out=%v", out.Data)
		}
	}
}

// numericalGrad checks the analytic gradient of a scalar loss w.r.t. one
// parameter element via central differences.
func numericalGrad(t *testing.T, param *tensor, idx int, loss func() float64, analytic float64) {
	t.Helper()
	const h = 1e-6
	orig := param.Data[idx]
	param.Data[idx] = orig + h
	lp := loss()
	param.Data[idx] = orig - h
	lm := loss()
	param.Data[idx] = orig
	num := (lp - lm) / (2 * h)
	if math.Abs(num-analytic) > 1e-4*(1+math.Abs(num)) {
		t.Fatalf("grad mismatch: numeric %v analytic %v", num, analytic)
	}
}

func TestGradientsMatMulBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := newTensor(3, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	lin := newLinear(4, 2, rng)
	w2 := newParam(2, 1, rng)
	loss := func() float64 {
		c := newCtx(false)
		h := lin.forward(c, x)
		h = c.relu(h)
		out := c.meanRows(h)
		out = c.matMul(out, w2)
		return c.mse(out, 0.7)
	}
	// Analytic.
	c := newCtx(false)
	h := lin.forward(c, x)
	h = c.relu(h)
	out := c.meanRows(h)
	out = c.matMul(out, w2)
	_ = c.mse(out, 0.7)
	c.backward()
	numericalGrad(t, lin.W, 3, loss, lin.W.Grad[3])
	numericalGrad(t, lin.B, 1, loss, lin.B.Grad[1])
	numericalGrad(t, w2, 0, loss, w2.Grad[0])
}

func TestGradientsBatchNormTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := newTensor(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 2
	}
	// Fresh BN per loss call so running stats don't drift between probes.
	mk := func() *batchNorm { return newBatchNorm(3) }
	bn := mk()
	g0 := bn.Gamma
	w := newParam(3, 1, rng)
	forward := func(b *batchNorm) (*ctx, *tensor) {
		c := newCtx(true)
		h := b.forward(c, x)
		o := c.meanRows(h)
		return c, c.matMul(o, w)
	}
	c, out := forward(bn)
	_ = c.mse(out, 0.3)
	c.backward()
	analytic := g0.Grad[1]
	loss := func() float64 {
		b := mk()
		b.Gamma.Data[1] = g0.Data[1]
		c2, o := forward(b)
		return c2.mse(o, 0.3)
	}
	const h = 1e-6
	orig := g0.Data[1]
	g0.Data[1] = orig + h
	lp := loss()
	g0.Data[1] = orig - h
	lm := loss()
	g0.Data[1] = orig
	num := (lp - lm) / (2 * h)
	if math.Abs(num-analytic) > 1e-4*(1+math.Abs(num)) {
		t.Fatalf("bn gamma grad: numeric %v analytic %v", num, analytic)
	}
}

func TestGradientSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newSparse([]int{2, 1, 1})
	s.add(0, 1, 0.5)
	s.add(1, 0, 0.5)
	s.add(2, 2, 1.0)
	s.add(0, 0, 0.3)
	x := newParam(3, 2, rng)
	loss := func() float64 {
		c := newCtx(false)
		h := c.spmm(s, x)
		o := c.meanRows(h)
		o2 := newTensor(1, 1)
		o2.Data[0] = o.Data[0] + o.Data[1]
		// use MatMul with ones to stay on tape
		ones := newTensor(2, 1)
		ones.Data[0], ones.Data[1] = 1, 1
		p := c.matMul(o, ones)
		return c.mse(p, 0.1)
	}
	c := newCtx(false)
	h := c.spmm(s, x)
	o := c.meanRows(h)
	ones := newTensor(2, 1)
	ones.Data[0], ones.Data[1] = 1, 1
	p := c.matMul(o, ones)
	_ = c.mse(p, 0.1)
	c.backward()
	numericalGrad(t, x, 2, loss, x.Grad[2])
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w - 3)^2 via the tape machinery.
	rng := rand.New(rand.NewSource(4))
	w := newParam(1, 1, rng)
	one := newTensor(1, 1)
	one.Data[0] = 1
	optim := newAdam([]*tensor{w}, 0.1)
	for i := 0; i < 200; i++ {
		c := newCtx(false)
		out := c.matMul(one, w)
		c.mse(out, 3.0)
		c.backward()
		optim.step()
	}
	if math.Abs(w.Data[0]-3) > 1e-2 {
		t.Fatalf("w=%v want 3", w.Data[0])
	}
}

// toyGraphs builds tiny synthetic cluster graphs whose cost depends on the
// shape and a graph statistic, so the model has learnable signal.
func toySamples(t *testing.T, n int, seed int64) []Sample {
	t.Helper()
	b := designs.Generate(designs.TinySpec(seed))
	view := b.Design.ToHypergraph()
	res := cluster.MultilevelFC(view.H, cluster.Options{Seed: seed, TargetClusters: 8})
	var graphs []*GraphInput
	for cID := 0; cID < res.NumClusters; cID++ {
		var members []int
		for v, c := range res.Assign {
			if c == cID {
				members = append(members, v)
			}
		}
		if len(members) < 10 {
			continue
		}
		sub, err := vpr.InduceSubNetlist(b.Design, members)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, BuildGraphInput(sub, features.Options{Seed: seed}))
	}
	if len(graphs) == 0 {
		t.Fatal("no usable clusters")
	}
	var out []Sample
	i := 0
	for len(out) < n {
		g := graphs[i%len(graphs)]
		for _, s := range vpr.ShapeCandidates() {
			// Synthetic smooth label: depends on shape and graph size.
			label := 0.5 + 0.8*math.Abs(s.AspectRatio-1.0) + 0.5*(s.Utilization-0.75) +
				0.1*math.Log(float64(g.numNodes()))
			out = append(out, Sample{Graph: g, Shape: s, Label: label})
			if len(out) >= n {
				break
			}
		}
		i++
	}
	return out
}

func TestFitReducesLoss(t *testing.T) {
	samples := toySamples(t, 60, 71)
	m := NewModel(5)
	losses := m.Fit(samples, TrainOptions{Epochs: 6, LR: 2e-3, Seed: 1})
	if len(losses) != 6 {
		t.Fatalf("losses=%v", losses)
	}
	if !(losses[len(losses)-1] < losses[0]) {
		t.Fatalf("training did not reduce loss: %v", losses)
	}
}

// TestFitWorkersEquivalent: the branch fork trains the same model, to the
// byte of its saved file, at any worker count.
func TestFitWorkersEquivalent(t *testing.T) {
	samples := toySamples(t, 20, 75)
	var ref []byte
	for _, w := range []int{1, 2, 8} {
		m := NewModel(9)
		m.Fit(samples, TrainOptions{Epochs: 2, Seed: 4, Workers: w})
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("Workers=%d: saved model differs from Workers=1", w)
		}
	}
}

// TestTrainStepAllocsBounded: a training step on a tape that has run one
// step allocates a small fixed number of bytes, whatever the graph's size.
// Every buffer and tensor header comes from the tape's arenas; what is left
// is the backward closures and the fork of the four branches. The budget
// holds on an ariane PPA cluster (~1.6k nodes) and on the union of its two
// largest clusters, about twice as large, at one worker and at four.
func TestTrainStepAllocsBounded(t *testing.T) {
	const budget = 8 << 10
	shape := vpr.Shape{AspectRatio: 1.25, Utilization: 0.8}
	for _, g := range []*GraphInput{ppaCluster(t, "ariane"), ppaClusters(t, "ariane", 2)} {
		for _, workers := range []int{1, 4} {
			m := NewModel(2)
			optim := newAdam(m.params(), 1e-3)
			c := newCtx(true)
			s := Sample{Graph: g, Shape: shape, Label: 1}
			m.step(c, optim, s, workers)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.step(c, optim, s, workers)
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; b > budget {
				t.Errorf("%d nodes, %d workers: a warmed step allocates %d bytes, budget %d", g.numNodes(), workers, b, budget)
			}
		}
	}
}

func TestEvaluateMetrics(t *testing.T) {
	samples := toySamples(t, 80, 72)
	m := NewModel(6)
	m.Fit(samples[:60], TrainOptions{Epochs: 25, LR: 3e-3, Seed: 2})
	train := m.Evaluate(samples[:60])
	test := m.Evaluate(samples[60:])
	if train.N != 60 || test.N != 20 {
		t.Fatalf("counts: %d %d", train.N, test.N)
	}
	if train.MAE <= 0 || test.MAE <= 0 {
		t.Fatal("MAE should be positive")
	}
	// The synthetic label is smooth in the inputs; training must beat the
	// trivial predictor on the train split (R2 > 0).
	if train.R2 <= 0 {
		t.Fatalf("train R2=%v", train.R2)
	}
}

func TestPredictBestShapeNearOptimum(t *testing.T) {
	samples := toySamples(t, 60, 73)
	m := NewModel(7)
	m.Fit(samples, TrainOptions{Epochs: 8, LR: 2e-3, Seed: 3})
	g := samples[0].Graph
	best := m.PredictBestShape(g)
	// The synthetic label is minimized at AR=1.0, util=0.75.
	if math.Abs(best.AspectRatio-1.0) > 0.26 {
		t.Fatalf("predicted AR=%v, expected near 1.0", best.AspectRatio)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := NewModel(8)
	if got := m.Evaluate(nil); got.N != 0 {
		t.Fatalf("empty evaluate: %+v", got)
	}
	if m.Fit(nil, TrainOptions{}) != nil {
		t.Fatal("fit on empty set should return nil")
	}
}

func TestBuildGraphInputSelfLoops(t *testing.T) {
	b := designs.Generate(designs.TinySpec(74))
	g := BuildGraphInput(b.Design, features.Options{})
	if g.numNodes() != len(b.Design.Insts) {
		t.Fatal("node count mismatch")
	}
	// Every node must have at least the 0.5 self entry.
	for i := 0; i < g.s.N; i++ {
		found := false
		for _, col := range g.s.col[g.s.start[i]:g.s.end[i]] {
			if col == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d missing self-loop", i)
		}
	}
}

func TestModelDeterministicPredict(t *testing.T) {
	samples := toySamples(t, 20, 75)
	m := NewModel(9)
	m.Fit(samples, TrainOptions{Epochs: 1, Seed: 4})
	p1 := predictOne(m, samples[0].Graph, samples[0].Shape)
	p2 := predictOne(m, samples[0].Graph, samples[0].Shape)
	if p1 != p2 {
		t.Fatal("inference not deterministic")
	}
}
