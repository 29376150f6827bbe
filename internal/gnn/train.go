package gnn

import (
	"math"
	"math/rand"

	"ppaclust/internal/par"
	"ppaclust/internal/vpr"
)

// Sample is one training example: a cluster graph, a candidate shape, and
// the Total Cost label from exact V-P&R.
type Sample struct {
	Graph *GraphInput
	Shape vpr.Shape
	Label float64
}

// TrainOptions configures training.
type TrainOptions struct {
	Epochs int     // default 8
	LR     float64 // default 1e-3
	Seed   int64
	// Workers bounds the goroutines each sample's four convolution
	// branches run on: 0 = auto (PPACLUST_WORKERS, else GOMAXPROCS), 1 =
	// one after the other. The trained model is bit-identical for every
	// worker count.
	Workers int
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 8
	}
	if o.LR <= 0 {
		o.LR = 1e-3
	}
	return o
}

// Fit standardizes features/labels from the training set and runs Adam over
// per-sample (stochastic) updates. It returns the per-epoch training loss
// (MSE in standardized label units).
func (m *Model) Fit(train []Sample, opt TrainOptions) []float64 {
	opt = opt.withDefaults()
	if len(train) == 0 {
		return nil
	}
	m.fitNormalization(train)
	workers := par.Workers(opt.Workers)
	optim := newAdam(m.params(), opt.LR)
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	losses := make([]float64, 0, opt.Epochs)
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	for ep := 0; ep < opt.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		used := 0
		for _, idx := range order {
			s := train[idx]
			if s.Graph.numNodes() == 0 {
				continue
			}
			used++
			c := newCtx(true)
			out := m.forward(c, s.Graph, s.Shape, workers)
			label := (s.Label - m.labelMean) / m.labelStd
			sum += c.mse(out, label)
			c.backward()
			optim.step()
		}
		if used > 0 {
			sum /= float64(used)
		}
		losses = append(losses, sum)
	}
	return losses
}

// fitNormalization computes feature and label standardization from samples.
func (m *Model) fitNormalization(train []Sample) {
	dim := inputDim
	mean := make([]float64, dim)
	sq := make([]float64, dim)
	row := make([]float64, dim)
	count := 0
	var lSum, lSq float64
	for _, s := range train {
		g := s.Graph
		for i := 0; i < g.numNodes(); i++ {
			g.f.NodeVec(i, s.Shape.AspectRatio, s.Shape.Utilization, row)
			for j := 0; j < dim; j++ {
				mean[j] += row[j]
				sq[j] += row[j] * row[j]
			}
			count++
		}
		lSum += s.Label
		lSq += s.Label * s.Label
	}
	if count == 0 {
		return
	}
	for j := 0; j < dim; j++ {
		mean[j] /= float64(count)
		v := sq[j]/float64(count) - mean[j]*mean[j]
		if v < 1e-12 {
			v = 1
		}
		m.featMean[j] = mean[j]
		m.featStd[j] = math.Sqrt(v)
	}
	n := float64(len(train))
	m.labelMean = lSum / n
	lv := lSq/n - m.labelMean*m.labelMean
	if lv < 1e-12 {
		lv = 1
	}
	m.labelStd = math.Sqrt(lv)
}

// Metrics summarizes prediction quality on a dataset (Section 4.4 reports
// MAE and the R2 score).
type Metrics struct {
	MAE  float64
	R2   float64
	RMSE float64
	N    int
}

// Evaluate computes MAE/R2/RMSE of the model on a sample set.
func (m *Model) Evaluate(samples []Sample) Metrics {
	var mae, se, labelSum float64
	n := 0
	// Samples of one graph usually sit next to each other; keep the
	// per-graph inference state across them.
	var inf *inference
	var sc *scratch
	for _, s := range samples {
		if s.Graph.numNodes() == 0 {
			continue
		}
		if inf == nil || inf.g != s.Graph {
			inf = m.prepare(s.Graph)
			sc = newScratch(inf.n)
		}
		p := inf.cost(sc, s.Shape)
		d := p - s.Label
		mae += math.Abs(d)
		se += d * d
		labelSum += s.Label
		n++
	}
	if n == 0 {
		return Metrics{}
	}
	mean := labelSum / float64(n)
	var tss float64
	for _, s := range samples {
		if s.Graph.numNodes() == 0 {
			continue
		}
		d := s.Label - mean
		tss += d * d
	}
	met := Metrics{MAE: mae / float64(n), RMSE: math.Sqrt(se / float64(n)), N: n}
	if tss > 0 {
		met.R2 = 1 - se/tss
	}
	return met
}
