package flow

import (
	"slices"
	"testing"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/sta"
	"ppaclust/internal/vpr"
)

func tinyBench(seed int64) *designs.Benchmark {
	return designs.Generate(designs.TinySpec(seed))
}

func TestRunDefaultProducesMetrics(t *testing.T) {
	b := tinyBench(81)
	res, err := RunDefault(b, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL <= 0 || res.RoutedWL <= 0 {
		t.Fatalf("wirelength: hpwl=%v rwl=%v", res.HPWL, res.RoutedWL)
	}
	if res.WNS > 0 || res.TNS > 0 {
		t.Fatalf("slacks must be <=0: wns=%v tns=%v", res.WNS, res.TNS)
	}
	if res.Power <= 0 {
		t.Fatalf("power=%v", res.Power)
	}
	if res.PlaceTime <= 0 {
		t.Fatal("no place time recorded")
	}
	// The original design must not be mutated.
	for _, inst := range b.Design.Insts {
		if inst.Placed && !inst.Fixed {
			t.Fatal("RunDefault mutated the benchmark design")
		}
	}
}

func TestRunPPAAwareFlow(t *testing.T) {
	b := tinyBench(82)
	res, err := Run(b, Options{Seed: 2, Shapes: ShapeUniform})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters < 2 {
		t.Fatalf("clusters=%d", res.Clusters)
	}
	if res.HPWL <= 0 || res.RoutedWL <= 0 || res.Power <= 0 {
		t.Fatalf("bad metrics: %+v", res)
	}
	if res.ClusterTime <= 0 || res.SeedPlaceTime <= 0 || res.IncrPlaceTime <= 0 {
		t.Fatal("missing runtime breakdown")
	}
}

func TestRunComparableToDefault(t *testing.T) {
	b := tinyBench(83)
	def, err := RunDefault(b, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ours, err := Run(b, Options{Seed: 3, Shapes: ShapeUniform})
	if err != nil {
		t.Fatal(err)
	}
	// Clustered seeded placement should land within a reasonable factor of
	// the flat flow's HPWL on a tiny design.
	if ours.HPWL > 1.6*def.HPWL {
		t.Fatalf("clustered HPWL %v vs default %v", ours.HPWL, def.HPWL)
	}
}

func TestRunWithVPRShapes(t *testing.T) {
	b := tinyBench(84)
	res, err := Run(b, Options{Seed: 4, Shapes: ShapeVPR, VPRMinInsts: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShapedVPR == 0 {
		t.Fatal("expected at least one cluster through V-P&R")
	}
}

func TestRunInnovusModeWithRegions(t *testing.T) {
	b := tinyBench(85)
	res, err := Run(b, Options{Seed: 5, Tool: ToolInnovus, Shapes: ShapeRandom, VPRMinInsts: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutedWL <= 0 {
		t.Fatal("no routing result")
	}
}

func TestRunAllMethods(t *testing.T) {
	b := tinyBench(86)
	for _, m := range []Method{MethodPPAAware, MethodMFC, MethodLeiden, MethodLouvain} {
		res, err := Run(b, Options{Seed: 6, Method: m, Shapes: ShapeUniform, SkipRoute: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Clusters < 2 || res.HPWL <= 0 {
			t.Fatalf("%v: %+v", m, res)
		}
	}
}

// TestRunFillsSingletons: Run reports the size-1 clusters of the clustering
// it places (it used to leave Singletons at 0), on a design that has some.
func TestRunFillsSingletons(t *testing.T) {
	spec, _ := designs.Named("aes")
	b := designs.Generate(spec)
	opt := Options{Seed: 1, Shapes: ShapeUniform, SkipRoute: true}
	cres, err := Cluster(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, n := range cluster.Sizes(cres.Assign, cres.NumClusters) {
		if n == 1 {
			want++
		}
	}
	if want == 0 {
		t.Fatal("aes at seed 1 clusters without a singleton; the test needs one")
	}
	res, err := Run(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Singletons != want {
		t.Fatalf("Run: %d singletons, its clustering has %d", res.Singletons, want)
	}
}

// TestClusterIsRunsClustering: for every method, Cluster returns the
// clustering Run places — the same cluster and singleton counts — and its
// assignment does not depend on the worker count.
func TestClusterIsRunsClustering(t *testing.T) {
	for _, design := range []string{"aes", "jpeg"} {
		spec, _ := designs.Named(design)
		b := designs.Generate(spec)
		for _, m := range []Method{MethodPPAAware, MethodMFC, MethodLeiden, MethodLouvain} {
			opt := Options{Seed: 1, Method: m, Shapes: ShapeUniform, SkipRoute: true, Workers: 1}
			seq, err := Cluster(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Workers = 4
			par, err := Cluster(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(seq.Assign, par.Assign) {
				t.Errorf("%s %v: assignment differs between W=1 and W=4", design, m)
			}
			res, err := Run(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if seq.NumClusters != res.Clusters || seq.Singletons != res.Singletons {
				t.Errorf("%s %v: Cluster %d clusters, %d singletons; Run %d, %d", design, m,
					seq.NumClusters, seq.Singletons, res.Clusters, res.Singletons)
			}
		}
	}
}

func TestVPRMLRequiresModel(t *testing.T) {
	b := tinyBench(87)
	_, err := Run(b, Options{Seed: 7, Shapes: ShapeVPRML, VPRMinInsts: 10})
	if err == nil {
		t.Fatal("expected error without a trained model")
	}
}

func TestSkipRoute(t *testing.T) {
	b := tinyBench(88)
	res, err := Run(b, Options{Seed: 8, Shapes: ShapeUniform, SkipRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutedWL != 0 || res.Power != 0 {
		t.Fatal("SkipRoute should skip post-route metrics")
	}
	if res.HPWL <= 0 {
		t.Fatal("HPWL should still be measured")
	}
}

func TestBuildClusteredDesign(t *testing.T) {
	b := tinyBench(89)
	d := b.Design.Clone()
	// Two-cluster split by instance parity.
	assign := make([]int, len(d.Insts))
	for i := range assign {
		assign[i] = i % 2
	}
	shapes := map[int]vpr.Shape{0: {AspectRatio: 1, Utilization: 0.9}, 1: {AspectRatio: 1.5, Utilization: 0.8}}
	cd, clusterInsts, err := BuildClusteredDesign(d, assign, 2, shapes)
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Insts) != 2 {
		t.Fatalf("cluster insts=%d", len(cd.Insts))
	}
	if err := cd.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shapes respected.
	m1 := cd.Insts[clusterInsts[1]].Master
	ar := m1.Height / m1.Width
	if ar < 1.4 || ar > 1.6 {
		t.Fatalf("cluster 1 AR=%v want 1.5", ar)
	}
	// Ports carried over.
	if len(cd.Ports) != len(d.Ports) {
		t.Fatal("ports lost")
	}
	// Net contraction: all nets must span >= 2 endpoints.
	for _, n := range cd.Nets {
		if len(n.Pins) < 2 {
			t.Fatalf("degenerate clustered net %s", n.Name)
		}
	}
	// Parallel nets merged: far fewer clustered nets than flat nets.
	if len(cd.Nets) >= len(d.Nets) {
		t.Fatalf("no net merging: %d vs %d", len(cd.Nets), len(d.Nets))
	}
}

func TestScaleIONets(t *testing.T) {
	b := tinyBench(90)
	d := b.Design.Clone()
	var ioNet, coreNet string
	for _, n := range d.Nets {
		hasPort := false
		for _, pr := range n.Pins {
			if pr.IsPort() {
				hasPort = true
			}
		}
		if hasPort && ioNet == "" {
			ioNet = n.Name
		}
		if !hasPort && coreNet == "" && len(n.Pins) >= 2 {
			coreNet = n.Name
		}
	}
	scaleIONets(d, 4)
	if d.Net(ioNet).Weight != 4 {
		t.Fatalf("IO net weight=%v", d.Net(ioNet).Weight)
	}
	if d.Net(coreNet).Weight != 1 {
		t.Fatalf("core net weight=%v", d.Net(coreNet).Weight)
	}
}

func TestStringers(t *testing.T) {
	if ToolOpenROAD.String() != "openroad" || ToolInnovus.String() != "innovus" {
		t.Fatal("tool strings")
	}
	if MethodPPAAware.String() != "ppa-aware" || MethodLeiden.String() != "leiden" {
		t.Fatal("method strings")
	}
	if ShapeVPR.String() != "vpr" || ShapeVPRML.String() != "vpr-ml" {
		t.Fatal("shape strings")
	}
}

func TestRunWithBufferRepair(t *testing.T) {
	b := tinyBench(91)
	plain, err := RunDefault(b, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := RunDefault(b, Options{Seed: 9, RepairBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	if repaired.RoutedWL <= 0 {
		t.Fatal("repair flow produced no routing")
	}
	// Buffering must not catastrophically hurt timing (tiny designs have
	// little to repair; allow sub-ns noise).
	if repaired.TNS < plain.TNS-1e-9 {
		t.Fatalf("repair degraded TNS badly: %v vs %v", repaired.TNS, plain.TNS)
	}
	// Clustered flow with repair also runs.
	if _, err := Run(b, Options{Seed: 9, Shapes: ShapeUniform, RepairBuffers: true}); err != nil {
		t.Fatal(err)
	}
}

// TestClockArrivalsRetimePlaced: an analyzer built on Result.Placed with
// Result.ClockArrivals set reports the WNS/TNS the flow printed, bit for bit,
// for both flows and with buffer repair (which rebuilds the evaluation
// analyzer). `ppa flow -report` builds its report this way; without the CTS
// arrivals it timed an ideal clock and disagreed with the metrics above it.
func TestClockArrivalsRetimePlaced(t *testing.T) {
	b := tinyBench(92)
	for _, tc := range []struct {
		name string
		run  func(*designs.Benchmark, Options) (*Result, error)
		opt  Options
	}{
		{"clustered", Run, Options{Seed: 3, Shapes: ShapeUniform}},
		{"default", RunDefault, Options{Seed: 3}},
		{"clustered-repair", Run, Options{Seed: 3, Shapes: ShapeUniform, RepairBuffers: true}},
	} {
		res, err := tc.run(b, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.ClockArrivals) == 0 {
			t.Fatalf("%s: no clock arrivals recorded", tc.name)
		}
		an := sta.New(res.Placed, b.Cons)
		an.SetClockArrivalList(res.ClockArrivals)
		sum := an.Timing()
		if sum.WNS != res.WNS || sum.TNS != res.TNS {
			t.Fatalf("%s: re-timed WNS/TNS %g/%g, flow reported %g/%g",
				tc.name, sum.WNS, sum.TNS, res.WNS, res.TNS)
		}
	}
}
