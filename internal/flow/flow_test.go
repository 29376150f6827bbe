package flow

import (
	"slices"
	"testing"

	"ppaclust/internal/cluster"
	"ppaclust/internal/cts"
	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
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
	res, err := Run(b, Options{Seed: 4, Shapes: ShapeVPR})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShapedVPR == 0 {
		t.Fatal("expected at least one cluster through V-P&R")
	}
}

func TestRunInnovusModeWithRegions(t *testing.T) {
	b := tinyBench(85)
	res, err := Run(b, Options{Seed: 5, Tool: ToolInnovus, Shapes: ShapeRandom})
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
	_, err := Run(b, Options{Seed: 7, Shapes: ShapeVPRML})
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
	ioNet, coreNet := -1, -1
	for _, n := range d.Nets {
		hasPort := false
		for _, pr := range n.Pins {
			if pr.IsPort() {
				hasPort = true
			}
		}
		if hasPort && ioNet < 0 {
			ioNet = n.ID
		}
		if !hasPort && coreNet < 0 && len(n.Pins) >= 2 {
			coreNet = n.ID
		}
	}
	scaleIONets(d, 4)
	if d.Nets[ioNet].Weight != 4 {
		t.Fatalf("IO net weight=%v", d.Nets[ioNet].Weight)
	}
	if d.Nets[coreNet].Weight != 1 {
		t.Fatalf("core net weight=%v", d.Nets[coreNet].Weight)
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

// TestClockArrivalsRetimePlaced: an analyzer built on Result.Placed with
// Result.ClockArrivals set reports the WNS/TNS the flow printed, bit for bit,
// for both flows and for a clustered run on MFC, whose analyzer is built
// after placement instead of reused from the clustering. `ppa flow -report`
// builds its report this way; without the CTS arrivals it timed an ideal
// clock and disagreed with the metrics above it.
func TestClockArrivalsRetimePlaced(t *testing.T) {
	b := tinyBench(92)
	for _, tc := range []struct {
		name string
		run  func(*designs.Benchmark, Options) (*Result, error)
		opt  Options
	}{
		{"clustered", Run, Options{Seed: 3, Shapes: ShapeUniform}},
		{"default", RunDefault, Options{Seed: 3}},
		{"clustered-mfc", Run, Options{Seed: 3, Shapes: ShapeUniform, Method: MethodMFC}},
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

// TestEveryClockDomainGetsATree splits a generated design's clock sinks over
// two nets, each rooted at its own clock input port, and checks that both
// flows synthesize a tree on each: the arrivals cover every sink of both
// nets, the clock wire is the two trees' sum, and re-timing the placed
// design with the arrivals reproduces the reported slacks.
func TestEveryClockDomainGetsATree(t *testing.T) {
	b := tinyBench(93)
	d := b.Design
	clk := d.Nets[slices.IndexFunc(d.Nets, func(n *netlist.Net) bool { return n.Clock })]
	var keep, moved []netlist.PinRef
	for i, p := range clk.Pins {
		if p.IsPort() || i%2 == 0 {
			keep = append(keep, p)
		} else {
			moved = append(moved, p)
		}
	}
	if len(moved) == 0 {
		t.Fatal("the clock net has no sink to move")
	}
	// A built design's connectivity is fixed: record it again, clk with the
	// kept pins only, then add the second domain.
	nb := netlist.NewBuilder(d.Name, d.Lib)
	nb.Die, nb.Core, nb.RowHeight, nb.SiteWidth = d.Die, d.Core, d.RowHeight, d.SiteWidth
	for _, inst := range d.Insts {
		c := nb.AddInstance(inst.Name, inst.Master)
		c.X, c.Y, c.Placed, c.Fixed = inst.X, inst.Y, inst.Placed, inst.Fixed
	}
	for _, p := range d.Ports {
		c := nb.AddPort(p.Name, p.Dir)
		c.X, c.Y, c.Placed = p.X, p.Y, p.Placed
	}
	for _, n := range d.Nets {
		c := nb.AddNet(n.Name)
		c.Weight, c.Clock = n.Weight, n.Clock
		pins := n.Pins
		if n == clk {
			pins = keep
		}
		for _, p := range pins {
			nb.Connect(c, p)
		}
	}
	root := d.Ports[keep[slices.IndexFunc(keep, netlist.PinRef.IsPort)].Pin]
	port := nb.AddPort("clk2", netlist.DirInput)
	port.X, port.Y, port.Placed = root.X, root.Y, true
	clk2 := nb.AddNet("clk2")
	clk2.Clock = true
	nb.Connect(clk2, netlist.PinRef{Inst: -1, Pin: len(nb.Ports) - 1})
	for _, p := range moved {
		nb.Connect(clk2, p)
	}
	var err error
	if b.Design, err = nb.Build(); err != nil {
		t.Fatal(err)
	}
	d = b.Design

	for _, tc := range []struct {
		name string
		run  func(*designs.Benchmark, Options) (*Result, error)
	}{{"clustered", Run}, {"default", RunDefault}} {
		res, err := tc.run(b, Options{Seed: 3, Shapes: ShapeUniform})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.ClockArrivals) != len(keep)-1+len(moved) {
			t.Fatalf("%s: %d clock arrivals, want one per sink of both nets (%d)",
				tc.name, len(res.ClockArrivals), len(keep)-1+len(moved))
		}
		var wl float64
		for _, n := range []*netlist.Net{res.Placed.Nets[clk.ID], res.Placed.Nets[clk2.ID]} {
			tree := cts.Synthesize(res.Placed, n, cts.Options{BufMaster: d.Lib.Master("CLKBUF_X2")})
			if tree.WirelengthUM <= 0 {
				t.Fatalf("%s: net %s has no tree", tc.name, n.Name)
			}
			wl += tree.WirelengthUM
		}
		if res.ClockWL != wl {
			t.Fatalf("%s: clock wirelength %v, want the two trees' %v", tc.name, res.ClockWL, wl)
		}
		an := sta.New(res.Placed, b.Cons)
		an.SetClockArrivalList(res.ClockArrivals)
		if sum := an.Timing(); sum.WNS != res.WNS || sum.TNS != res.TNS {
			t.Fatalf("%s: re-timed WNS/TNS %g/%g, flow reported %g/%g",
				tc.name, sum.WNS, sum.TNS, res.WNS, res.TNS)
		}
	}
}

// TestIncrementalBudgetHoldsInnovusHPWL guards the floor of the incremental
// run's round budget (place.Options.withDefaults). On aes and jpeg in
// Innovus mode the region constraints hold overflow near 0.98 through the
// guided rounds, so these two designs need the most free rounds after them:
// at a budget of 4 their clustered HPWL rises 33-37 %. The references are
// the 12-round budget's HPWL at commit 1481de0; the budget of 6 must stay
// within 5 % of them.
func TestIncrementalBudgetHoldsInnovusHPWL(t *testing.T) {
	for _, c := range []struct {
		design string
		ref    float64 // clustered HPWL (um) at 12 incremental rounds, 1481de0
	}{
		{"aes", 10368.544231},
		{"jpeg", 21311.494286},
	} {
		spec, _ := designs.Named(c.design)
		res, err := Run(designs.Generate(spec), Options{Seed: 1, Tool: ToolInnovus, Shapes: ShapeUniform, SkipRoute: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.HPWL > 1.05*c.ref {
			t.Errorf("%s: clustered HPWL %.1f um, more than 1.05 x the 12-round %.1f um", c.design, res.HPWL, c.ref)
		}
	}
}
