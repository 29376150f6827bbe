package gnn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/hier"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
	"ppaclust/internal/vpr"
)

// tapedPredict is the reference for the inference kernel: the training
// forward, evaluated without updating running statistics.
func tapedPredict(m *Model, g *GraphInput, shape vpr.Shape) float64 {
	out := m.forward(newCtx(false), g, shape, 1)
	return out.Data[0]*m.labelStd + m.labelMean
}

// predictOne is the inference kernel's cost of one shape.
func predictOne(m *Model, g *GraphInput, shape vpr.Shape) float64 {
	return m.shapeCosts(g, []vpr.Shape{shape}, 1)[0]
}

// oddGraph builds a cluster the generated designs never produce: a chain of
// inverters, one net fanning out to more members than the operator accepts
// (maxEdgePins), an instance wired twice to one net, and isolated cells.
func oddGraph(t *testing.T, chain, fanout, isolated int) *GraphInput {
	t.Helper()
	lib := designs.Lib()
	b := netlist.NewBuilder("odd", lib)
	d := b.Design
	inv := lib.Master("INV_X1")
	add := func(name string) int {
		inst := b.AddInstance(name, inv)
		return inst.ID
	}
	net := func(name string) *netlist.Net {
		n := b.AddNet(name)
		return n
	}
	prev := add("c0")
	for i := 1; i < chain; i++ {
		cur := add(fmt.Sprintf("c%d", i))
		n := net(fmt.Sprintf("n%d", i))
		b.Connect(n, pinRef(d, prev, "ZN"))
		b.Connect(n, pinRef(d, cur, "A"))
		if i%5 == 0 {
			b.Connect(n, pinRef(d, cur, "A"))
		}
		prev = cur
	}
	if fanout > 0 {
		big := net("big")
		b.Connect(big, pinRef(d, prev, "ZN"))
		for i := 0; i < fanout; i++ {
			b.Connect(big, pinRef(d, add(fmt.Sprintf("f%d", i)), "A"))
		}
	}
	for i := 0; i < isolated; i++ {
		add(fmt.Sprintf("iso%d", i))
	}
	build(t, b)
	return BuildGraphInput(d, features.Options{Seed: 1})
}

// ppaCluster returns the graph of the largest cluster that the paper's
// PPA-aware clustering forms on the named benchmark design, at the flow's
// default weights and seed 1 (hierarchy groups, timing costs from the
// zero-wire top paths, switching costs at mu = 2): the kind of graph the
// flow's shape prediction runs on. The ariane one has ~1.6k nodes.
func ppaCluster(tb testing.TB, name string) *GraphInput {
	tb.Helper()
	return ppaClusters(tb, name, 1)
}

// ppaClusters is ppaCluster on the union of the count largest clusters.
func ppaClusters(tb testing.TB, name string, count int) *GraphInput {
	tb.Helper()
	spec, ok := designs.Named(name)
	if !ok {
		tb.Fatalf("no design %q", name)
	}
	b := designs.Generate(spec)
	d := b.Design
	view := d.ToHypergraph()
	var groups []int
	if res, ok := hier.Cluster(d, view.H); ok {
		groups = res.Assign
	}
	cons := b.Cons
	cons.ZeroWire = true
	an := sta.New(d, cons)
	paths := an.TopPaths(100000)
	pathEdges := make([][]int, len(paths))
	slacks := make([]float64, len(paths))
	for i, p := range paths {
		slacks[i] = p.Slack
		for _, net := range p.Nets {
			if e := view.EdgeOfNet[net]; e >= 0 {
				pathEdges[i] = append(pathEdges[i], e)
			}
		}
	}
	netAct := an.NetActivity()
	edgeAct := make([]float64, view.H.NumEdges())
	for e, net := range view.NetOfEdge {
		edgeAct[e] = netAct[net]
	}
	res := cluster.MultilevelFC(view.H, cluster.Options{
		Alpha: 1, Beta: 1, Gamma: 1, Seed: 1, Groups: groups,
		EdgeTimingCost: cluster.TimingCosts(pathEdges, slacks, cons.ClockPeriod, view.H.NumEdges()),
		EdgeSwitchCost: cluster.SwitchCosts(edgeAct, 2),
	})
	sizes := cluster.Sizes(res.Assign, res.NumClusters)
	chosen := make([]bool, res.NumClusters)
	for range count {
		largest := slices.Index(sizes, slices.Max(sizes))
		chosen[largest] = true
		sizes[largest] = -1
	}
	var members []int
	for v, c := range res.Assign {
		if chosen[c] {
			members = append(members, v)
		}
	}
	sub, err := vpr.InduceSubNetlist(d, members)
	if err != nil {
		tb.Fatal(err)
	}
	return BuildGraphInput(sub, features.Options{Seed: 1})
}

var trained struct {
	once    sync.Once
	m       *Model
	samples []Sample
}

// trainedModel returns one fixed-seed trained model shared by the tests in
// this file, none of which modifies it.
func trainedModel(t *testing.T) (*Model, []Sample) {
	t.Helper()
	trained.once.Do(func() {
		trained.samples = toySamples(t, 60, 71)
		trained.m = fitFixed(trained.samples)
	})
	return trained.m, trained.samples
}

// fitFixed is the fixed-seed training behind trainedModel.
func fitFixed(samples []Sample) *Model {
	m := NewModel(5)
	m.Fit(samples, TrainOptions{Epochs: 4, LR: 2e-3, Seed: 1})
	return m
}

// TestFitBitIdentical pins training: the parameter bytes after a fixed-seed
// Fit equal the hash recorded before inference got its own kernel. The chain
// under it — InduceSubNetlist, feature extraction, the operator's entry
// order, the taped forward/backward, Adam — may not move a single bit. Like
// TestInferenceBitIdentical it trains on the kernels the CPU check chose and
// again on the portable ones: both must land on the same golden.
func TestFitBitIdentical(t *testing.T) {
	chosen, samples := trainedModel(t)
	for _, path := range []struct {
		name string
		avx  bool
	}{{"chosen", useAVX}, {"portable", false}} {
		t.Run(path.name, func(t *testing.T) {
			defer func(saved bool) { useAVX = saved }(useAVX)
			useAVX = path.avx
			m := chosen
			if !path.avx {
				m = fitFixed(samples)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			const golden = "8c2ed739d04e6d3d38305a0c39338c9a8ab2d3f5feb157f8c48579c1425d45fa"
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != golden {
				t.Fatalf("trained parameters changed: sha256 %s, want %s", got, golden)
			}
		})
	}
}

// TestInferenceBitIdentical pins inference as TestFitBitIdentical pins
// training: the bits of the 20 candidate costs that its fixed-seed model
// predicts on an aes and an ariane PPA cluster hash to the value recorded
// before the products moved to assembly kernels. A kernel that reorders one
// element's terms, fuses a multiply-add or drops a zero shows up here. It runs
// on the kernels the CPU check chose and again on the portable ones, which
// a CPU without AVX runs: both must land on the same golden.
func TestInferenceBitIdentical(t *testing.T) {
	m, _ := trainedModel(t)
	for _, path := range []struct {
		name string
		avx  bool
	}{{"chosen", useAVX}, {"portable", false}} {
		t.Run(path.name, func(t *testing.T) {
			defer func(saved bool) { useAVX = saved }(useAVX)
			useAVX = path.avx
			h := sha256.New()
			for _, name := range []string{"aes", "ariane"} {
				for _, c := range m.shapeCosts(ppaCluster(t, name), vpr.ShapeCandidates(), 1) {
					binary.Write(h, binary.LittleEndian, math.Float64bits(c))
				}
			}
			const golden = "ceaa1b6e8d39248a986e6fb12e149230fea65f9095b22082b0d6c4999719689e"
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
				t.Fatalf("predicted costs changed: sha256 %s, want %s", got, golden)
			}
		})
	}
}

func TestInferenceMatchesTapedForward(t *testing.T) {
	m, samples := trainedModel(t)
	graphs := map[string]*GraphInput{
		"cluster":      samples[0].Graph,
		"cluster-2":    samples[len(samples)-1].Graph,
		"isolated":     oddGraph(t, 12, 0, 5),
		"wide-net":     oddGraph(t, 8, maxEdgePins+6, 2),
		"edge-at-cap":  oddGraph(t, 3, maxEdgePins-1, 0),
		"single-node":  oddGraph(t, 1, 0, 0),
		"two-isolated": oddGraph(t, 1, 0, 1),
	}
	cands := vpr.ShapeCandidates()
	for name, g := range graphs {
		costs := m.shapeCosts(g, cands, 1)
		want := make([]float64, len(cands))
		for i, s := range cands {
			want[i] = tapedPredict(m, g, s)
			if d := math.Abs(costs[i] - want[i]); !(d <= 1e-9*math.Abs(want[i])) {
				t.Errorf("%s %+v: kernel %v, taped %v", name, s, costs[i], want[i])
			}
		}
		if got, ref := argminShape(cands, costs), argminShape(cands, want); got != ref {
			t.Errorf("%s: arg-min %+v, taped forward picks %+v", name, got, ref)
		}
	}
}

func TestCoalescedOperatorMatchesSparse(t *testing.T) {
	g := oddGraph(t, 10, 20, 3)
	n := g.numNodes()
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := g.s.start[i]; k < g.s.end[i]; k++ {
			dense[i*n+g.s.col[k]] += g.s.val[k]
		}
	}
	if g.s.end[n-1] != len(g.s.col) {
		t.Fatalf("operator rows not filled: %d of %d slots", g.s.end[n-1], len(g.s.col))
	}
	op := g.merged
	for i := 0; i < n; i++ {
		var sum float64
		seen := map[int]bool{}
		if op.end[i] != op.start[i+1] {
			t.Fatalf("row %d of the merged operator has unused slots", i)
		}
		for k := op.start[i]; k < op.end[i]; k++ {
			j := op.col[k]
			if seen[j] {
				t.Fatalf("row %d: column %d stored twice", i, j)
			}
			seen[j] = true
			if op.val[k] != dense[i*n+j] {
				t.Fatalf("S[%d][%d] = %v, want %v", i, j, op.val[k], dense[i*n+j])
			}
			dense[i*n+j] = 0
			sum += op.val[k]
		}
		if g.rowSum[i] != sum {
			t.Fatalf("row sum %d = %v, want %v", i, g.rowSum[i], sum)
		}
	}
	for k, v := range dense {
		if v != 0 {
			t.Fatalf("S[%d][%d] = %v missing from the coalesced operator", k/n, k%n, v)
		}
	}
}

// TestPredictBestShapeWorkersEquivalent uses an untrained model: worker
// independence is a property of the kernel, not of the weights, and skipping
// Fit keeps the test cheap under -race (scripts/check.sh runs it there).
func TestPredictBestShapeWorkersEquivalent(t *testing.T) {
	m := NewModel(11)
	cands := vpr.ShapeCandidates()
	cluster := toySamples(t, 1, 71)[0].Graph
	for _, g := range []*GraphInput{cluster, oddGraph(t, 8, 70, 2), oddGraph(t, 1, 0, 0)} {
		seq := m.shapeCosts(g, cands, 1)
		for _, w := range []int{2, 8, 64} {
			got := m.shapeCosts(g, cands, w)
			for i := range seq {
				if math.Float64bits(got[i]) != math.Float64bits(seq[i]) {
					t.Fatalf("W=%d candidate %d: cost %v, W=1 %v", w, i, got[i], seq[i])
				}
			}
		}
		if a, b := m.PredictBestShapeWorkers(g, 1), m.PredictBestShapeWorkers(g, 8); a != b {
			t.Fatalf("winner differs: W=1 %+v, W=8 %+v", a, b)
		}
		if a, b := m.PredictBestShapeWorkers(g, 1), m.PredictBestShape(g); a != b {
			t.Fatalf("winner differs: W=1 %+v, auto %+v", a, b)
		}
	}
}

func TestInferenceAllocFree(t *testing.T) {
	inf := NewModel(11).prepare(toySamples(t, 1, 71)[0].Graph)
	sc := newScratch(inf.n)
	cands := vpr.ShapeCandidates()
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		inf.cost(sc, cands[i%len(cands)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("per-shape evaluation allocates %v times on warmed scratch", allocs)
	}
}

// TestPredictBestShapeDegenerateGraphs pins the choice on graphs too small to
// have a shape problem.
func TestPredictBestShapeDegenerateGraphs(t *testing.T) {
	m, _ := trainedModel(t)
	empty := BuildGraphInput(build(t, netlist.NewBuilder("empty", designs.Lib())), features.Options{})
	if got := m.PredictBestShape(empty); got != vpr.UniformShape {
		t.Fatalf("empty graph: %+v, want the uniform shape", got)
	}
	if p := predictOne(m, empty, vpr.UniformShape); p != tapedPredict(m, empty, vpr.UniformShape) {
		t.Fatalf("empty graph: kernel %v, taped forward %v", p, tapedPredict(m, empty, vpr.UniformShape))
	}
	one := oddGraph(t, 1, 0, 0)
	cands := vpr.ShapeCandidates()
	costs := m.shapeCosts(one, cands, 1)
	for i, c := range costs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("one-node graph: candidate %d costs %v", i, c)
		}
	}
	if got := m.PredictBestShape(one); got != argminShape(cands, costs) {
		t.Fatalf("one-node graph: %+v is not the arg-min", got)
	}
	// NaN never wins, ties go to the earlier candidate, and with nothing
	// comparable the uniform shape stands in.
	nan := math.NaN()
	if got := argminShape(cands[:3], []float64{nan, 2, 2}); got != cands[1] {
		t.Fatalf("arg-min over [NaN 2 2] = %+v", got)
	}
	if got := argminShape(cands[:2], []float64{nan, nan}); got != vpr.UniformShape {
		t.Fatalf("arg-min over NaNs = %+v", got)
	}
}

// TestFitLossAveragesUsedSamples: Fit skips empty graphs, and they must not
// dilute the reported epoch loss. With one usable sample the first epoch's
// loss is that sample's squared error at the initial weights.
func TestFitLossAveragesUsedSamples(t *testing.T) {
	real := toySamples(t, 1, 71)[0]
	empty := BuildGraphInput(build(t, netlist.NewBuilder("empty", designs.Lib())), features.Options{})
	train := []Sample{{Graph: empty, Label: 0.4}, real, {Graph: empty, Label: 0.9}, {Graph: empty, Label: 1.3}}

	ref := NewModel(5)
	ref.fitNormalization(train)
	c := newCtx(true)
	want := c.mse(ref.forward(c, real.Graph, real.Shape, 1), (real.Label-ref.labelMean)/ref.labelStd)

	got := NewModel(5).Fit(train, TrainOptions{Epochs: 1, Seed: 1})
	if len(got) != 1 || got[0] != want {
		t.Fatalf("epoch loss %v, want the one used sample's error %v", got, want)
	}
	for _, l := range NewModel(5).Fit(train[:1], TrainOptions{Epochs: 2}) {
		if l != 0 {
			t.Fatalf("loss over no usable sample = %v, want 0", l)
		}
	}
}

// pinRef resolves a fixture pin by name; fixtures name only declared pins.
func pinRef(d *netlist.Design, inst int, name string) netlist.PinRef {
	ref, err := d.PinRefOf(inst, name)
	if err != nil {
		panic(err)
	}
	return ref
}

// build builds b's design, failing the test on an error.
func build(t testing.TB, b *netlist.Builder) *netlist.Design {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
