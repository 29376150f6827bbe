package main

import (
	"math"
	"os"
	"runtime"

	"ppaclust/internal/cluster"
	"ppaclust/internal/cts"
	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/flow"
	"ppaclust/internal/gnn"
	"ppaclust/internal/hier"
	"ppaclust/internal/lef"
	"ppaclust/internal/liberty"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
	"ppaclust/internal/power"
	"ppaclust/internal/route"
	"ppaclust/internal/sdc"
	"ppaclust/internal/sta"
	"ppaclust/internal/verilog"
	"ppaclust/internal/vpr"
)

// The replay drives Algorithm 1 through the layers' exported functions, in
// flow.Run's order and with its options, so every layer call can be timed
// from outside. It is a stopgap owned by this directory: the glue between
// the calls (path-to-edge mapping, IO net scaling, seeding at cluster
// centres, region building) is copied from internal/flow and shows up as
// flow.unattributed_s; flow.replay_match says whether the copy still lands
// on flow.Run's placement.

// Defaults of flow.Options the replay has to restate.
const (
	flowNumPaths      = 100000
	flowMu            = 2
	flowVPRMinInsts   = 50
	flowIOWeightScale = 4
	flowRegionUtil    = 0.55
)

func withFile(path string, fn func(f *os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// replayFrontend parses the five files one parser at a time.
func replayFrontend(t *tracer, bf benchFiles) error {
	var lib *netlist.Library
	var err error
	parse := func(name, path string, fn func(f *os.File) error) {
		if err != nil {
			return
		}
		t.do("frontend", name, func() { err = withFile(path, fn) })
	}
	parse("liberty.parse", bf.Files.Liberty, func(f *os.File) (e error) {
		lib, _, e = liberty.ParseWith(f, liberty.Options{File: bf.Files.Liberty})
		return e
	})
	parse("lef.parse", bf.Files.LEF, func(f *os.File) (e error) {
		_, _, e = lef.ParseWith(f, lib, lef.Options{File: bf.Files.LEF})
		return e
	})
	parse("verilog.parse", bf.Files.Verilog, func(f *os.File) (e error) {
		_, _, e = verilog.ParseWith(f, lib, verilog.Options{File: bf.Files.Verilog})
		return e
	})
	parse("def.parse", bf.Files.DEF, func(f *os.File) (e error) {
		_, _, e = def.ParseWith(f, lib, def.Options{File: bf.Files.DEF})
		return e
	})
	parse("sdc.parse", bf.Files.SDC, func(f *os.File) (e error) {
		_, _, e = sdc.ParseWith(f, sdc.Options{File: bf.Files.SDC})
		return e
	})
	return err
}

// replayClustered is flow.Run, call by call. It returns the final HPWL and
// the number of clusters above the shaping gate.
func replayClustered(t *tracer, cfg config, b *designs.Benchmark, model *gnn.Model) (float64, int, error) {
	W := cfg.Workers
	seed := cfg.Seed
	var d *netlist.Design
	t.do("netlist", "netlist.clone", func() { d = b.Design.Clone() })
	var err error
	t.do("netlist", "netlist.compact", func() { _, err = d.CompactChecked() })
	if err != nil {
		return 0, 0, err
	}
	var view *netlist.HypergraphView
	s := t.do("netlist", "netlist.hypergraph", func() { view = d.ToHypergraph() })
	s.count("insts", float64(len(d.Insts)))
	s.count("nets", float64(len(d.Nets)))
	s.count("pins", float64(pinCount(d)))

	// ---- clustering ----
	var groups []int
	t.do("hier", "hier.cluster", func() {
		if hres, ok := hier.Cluster(d, view.H); ok {
			groups = hres.Assign
		}
	})
	zc := b.Cons
	zc.ZeroWire = true
	var an *sta.Analyzer
	t.do("sta", "sta.build", func() { an = sta.New(d, zc) })
	an.Workers = W
	var paths []sta.Path
	s = t.do("sta", "sta.toppaths", func() { paths = an.TopPaths(flowNumPaths) })
	s.count("paths", float64(len(paths)))
	pathNets := make([][]int, len(paths))
	slacks := make([]float64, len(paths))
	for i, p := range paths {
		slacks[i] = p.Slack
		for _, netID := range p.Nets {
			if e := view.EdgeOfNet[netID]; e >= 0 {
				pathNets[i] = append(pathNets[i], e)
			}
		}
	}
	var netAct []float64
	t.do("sta", "sta.activity", func() { netAct = an.NetActivity() })
	edgeAct := make([]float64, view.H.NumEdges())
	for e, netID := range view.NetOfEdge {
		edgeAct[e] = netAct[netID]
	}
	var tCost, sCost []float64
	t.do("cluster", "cluster.costs", func() {
		tCost = cluster.TimingCosts(pathNets, slacks, b.Cons.ClockPeriod, view.H.NumEdges())
		sCost = cluster.SwitchCosts(edgeAct, flowMu)
	})
	fcOpt := cluster.Options{Alpha: 1, Beta: 1, Gamma: 1, Seed: seed, Groups: groups,
		EdgeTimingCost: tCost, EdgeSwitchCost: sCost, Workers: W}
	var cres cluster.Result
	s = t.do("cluster", "cluster.fc", func() { cres = cluster.MultilevelFC(view.H, fcOpt) })
	s.count("clusters", float64(cres.NumClusters))
	s.count("levels", float64(cres.Levels))
	s.count("singletons", float64(cres.Singletons))
	assign, nClusters := cres.Assign, cres.NumClusters

	// ---- shapes ----
	shapes := make(map[int]vpr.Shape, nClusters)
	shaped := make(map[int]bool)
	members := make([][]int, nClusters)
	for inst, c := range assign {
		members[c] = append(members[c], inst)
	}
	exact := func(sub *netlist.Design) vpr.Shape {
		var best vpr.Shape
		var evals []vpr.Eval
		s := t.do("vpr", "vpr.bestshape", func() {
			best, evals = vpr.BestShape(sub, vpr.Runner{Opt: vpr.Options{Seed: seed}})
		})
		s.count("evals", float64(len(evals)))
		return best
	}
	predicted := func(sub *netlist.Design) vpr.Shape {
		var g *gnn.GraphInput
		t.do("gnn", "gnn.graphinput", func() { g = gnn.BuildGraphInput(sub, features.Options{Seed: seed}) })
		var best vpr.Shape
		s := t.do("gnn", "gnn.predict", func() { best = model.PredictBestShape(g) })
		s.count("predictions", float64(len(vpr.ShapeCandidates())))
		return best
	}
	for c := 0; c < nClusters; c++ {
		shapes[c] = vpr.UniformShape
		if len(members[c]) <= flowVPRMinInsts {
			continue
		}
		shaped[c] = true
		if cfg.Workload.Shapes == flow.ShapeUniform {
			continue
		}
		id := t.begin("vpr", "vpr.cluster")
		var sub *netlist.Design
		t.do("vpr", "vpr.induce", func() { sub, err = vpr.InduceSubNetlist(d, members[c]) })
		if err != nil {
			return 0, 0, err
		}
		// The flow's own engine is attributed; the other engine on the same
		// cluster is timed for gnn.speedup_vs_vpr only.
		mine, other := exact, predicted
		if cfg.Workload.Shapes == flow.ShapeVPRML {
			mine, other = predicted, exact
		}
		shapes[c] = mine(sub)
		if cfg.Workload.BothEngines {
			t.attribute = false
			other(sub)
			t.attribute = true
		}
		t.end(id).count("insts", float64(len(members[c])))
	}

	// ---- seed placement of the clustered netlist ----
	var cd *netlist.Design
	var clusterInsts []int
	t.do("flow", "flow.build_clustered", func() {
		cd, clusterInsts, err = flow.BuildClusteredDesign(d, assign, nClusters, shapes)
	})
	if err != nil {
		return 0, 0, err
	}
	if cfg.Workload.Tool == flow.ToolOpenROAD {
		for _, n := range cd.Nets {
			for _, pr := range n.Pins {
				if pr.IsPort() {
					n.Weight *= flowIOWeightScale
					break
				}
			}
		}
	}
	t.do("place", "place.seed_global", func() { place.Global(cd, place.Options{Seed: seed, Workers: W}) })
	t.do("place", "place.seed_overlap", func() { place.RemoveOverlaps(cd) })
	for instID, c := range assign {
		inst := d.Insts[instID]
		if inst.Fixed {
			continue
		}
		ci := cd.Insts[clusterInsts[c]]
		inst.X = ci.CenterX() - inst.Master.Width/2
		inst.Y = ci.CenterY() - inst.Master.Height/2
		inst.Placed = true
	}

	// ---- incremental placement ----
	popt := place.Options{Seed: seed, Incremental: true, AnchorWeight: 0.1, Workers: W, TimingCons: b.Cons}
	if cfg.Workload.Tool == flow.ToolInnovus {
		popt.Regions = softRegions(d, assign, shaped, cd, clusterInsts)
		popt.SoftRegions = true
		popt.RegionIterations = 2
	}
	var pres place.Result
	s = t.do("place", "place.incr_global", func() { pres = place.Global(d, popt) })
	s.count("iters", float64(pres.Iterations))
	s.count("cg_iters", float64(pres.CGIterations))
	t.do("place", "place.incr_legalize", func() { place.Legalize(d) })
	var dres place.DetailedResult
	s = t.do("place", "place.incr_detailed", func() { dres = place.Detailed(d, place.DetailedOptions{Seed: seed}) })
	countDetailed(s, dres)
	s.count("illegal_cells", float64(illegalCells(d)))

	// ---- evaluation ----
	var hpwl float64
	t.do("netlist", "netlist.hpwl", func() { hpwl = d.HPWLWorkers(W) })
	var rres *route.Result
	s = t.do("route", "route.global", func() { rres = route.GlobalRoute(d, route.Options{Workers: W}) })
	s.count("wirelength_um", rres.WirelengthUM)
	s.count("overflow", float64(rres.Overflow))
	s.count("max_congestion", rres.MaxCongestion)
	s.count("vias", float64(rres.Vias))
	s = t.do("sta", "sta.update", func() {
		an.SetZeroWire(b.Cons.ZeroWire)
		an.Update()
	})
	s.count("update_nodes", float64(an.LastUpdateNodes()))
	for _, n := range d.Nets {
		if !n.Clock {
			continue
		}
		copt := cts.Options{BufMaster: d.Lib.Master("CLKBUF_X2"), SkipArrivalMap: true, Workers: W}
		var tree *cts.Result
		s = t.do("cts", "cts.synthesize", func() { tree = cts.Synthesize(d, n, copt) })
		s.count("buffers", float64(tree.Buffers))
		s.count("levels", float64(tree.Levels))
		s.count("skew_ps", tree.Skew()*1e12)
		if len(tree.ArrivalList) > 0 {
			an.SetClockArrivalList(tree.ArrivalList)
			tree.EstimatePower(copt, b.Cons.ClockPeriod, power.DefaultVdd)
		}
		break // single clock domain, as in flow.evaluate
	}
	t.do("sta", "sta.timing", func() { an.Timing() })
	t.do("sta", "sta.hold_drv", func() {
		an.HoldTiming()
		an.DRV()
	})
	t.do("power", "power.analyze", func() { power.Analyze(an, power.DefaultVdd) })
	return hpwl, len(shaped), nil
}

func countDetailed(s *span, r place.DetailedResult) {
	s.count("swaps", float64(r.Swaps))
	s.count("moves", float64(r.Moves))
	s.count("hpwl_before", r.HPWLBefore)
	s.count("hpwl_after", r.HPWLAfter)
}

// softRegions restates flow's Innovus recipe: each shaped cluster's region
// is centred on its seed footprint with the shape's aspect ratio, sized for
// the cluster's movable area at flowRegionUtil, and clamped into the core.
func softRegions(d *netlist.Design, assign []int, shaped map[int]bool,
	cd *netlist.Design, clusterInsts []int) map[int]netlist.Rect {

	core := d.Core
	area := make([]float64, len(clusterInsts))
	for inst, c := range assign {
		if !d.Insts[inst].Fixed {
			area[c] += d.Insts[inst].Master.Area()
		}
	}
	rects := make([]netlist.Rect, len(clusterInsts))
	for c, ii := range clusterInsts {
		ci := cd.Insts[ii]
		ar := ci.Master.Height / ci.Master.Width
		if ar <= 0 {
			ar = 1
		}
		w := 0.0
		if ra := area[c] / flowRegionUtil; ra/ar > 0 {
			w = math.Sqrt(ra / ar)
		}
		h := w * ar
		cx, cy := ci.CenterX(), ci.CenterY()
		rects[c] = netlist.Rect{
			X0: math.Max(cx-w/2, core.X0), Y0: math.Max(cy-h/2, core.Y0),
			X1: math.Min(cx+w/2, core.X1), Y1: math.Min(cy+h/2, core.Y1)}
	}
	regions := make(map[int]netlist.Rect)
	for inst, c := range assign {
		if !d.Insts[inst].Fixed && shaped[c] {
			regions[inst] = rects[c]
		}
	}
	return regions
}

// replayFlat is flow.RunDefault's placement, call by call, on its own clone.
func replayFlat(t *tracer, cfg config, b *designs.Benchmark) {
	d := b.Design.Clone()
	var pres place.Result
	s := t.do("place", "place.flat_global", func() {
		pres = place.Global(d, place.Options{Seed: cfg.Seed, Workers: cfg.Workers, TimingCons: b.Cons})
	})
	s.count("iters", float64(pres.Iterations))
	s.count("cg_iters", float64(pres.CGIterations))
	s.count("bin_overflow", pres.Overflow)
	t.do("place", "place.flat_legalize", func() { place.Legalize(d) })
	var dres place.DetailedResult
	s = t.do("place", "place.flat_detailed", func() { dres = place.Detailed(d, place.DetailedOptions{Seed: cfg.Seed}) })
	countDetailed(s, dres)
	s.count("illegal_cells", float64(illegalCells(d)))
}

// replayPar times four parallel kernels at Workers and at one worker, each
// pair on the same design state, for the par.* speed-ups. The flat placement
// at Workers is replayFlat's span; its one-worker twin runs here and places
// the clone the STA and the router then work on.
func replayPar(t *tracer, cfg config, b *designs.Benchmark) {
	d := b.Design.Clone()
	view := d.ToHypergraph()
	pair := func(name string, fn func(workers int)) {
		t.do("par", name+".wn", func() { fn(cfg.Workers) })
		t.do("par", name+".w1", func() { fn(1) })
	}
	pair("par.cluster", func(w int) {
		cluster.MultilevelFC(view.H, cluster.Options{Alpha: 1, Seed: cfg.Seed, Workers: w})
	})
	t.do("par", "par.place.w1", func() {
		place.Global(d, place.Options{Seed: cfg.Seed, Workers: 1, TimingCons: b.Cons})
	})
	pair("par.sta", func(w int) {
		an := sta.New(d, b.Cons)
		an.Workers = w
		an.Timing()
	})
	pair("par.route", func(w int) { route.GlobalRoute(d, route.Options{Workers: w}) })
}

// replay traces every design of the workload and folds the spans into the
// per-layer metrics. res holds the untraced medians the derived flow.*
// metrics are measured against, last the untraced per-design quality.
func replay(cfg config, files []benchFiles, loaded []*designs.Benchmark, model *gnn.Model,
	res *workloadResult, last repSample) (map[string]float64, []span, error) {

	t := newTracer(cfg.Workload.Name)
	tot := replayTotals{match: 1}
	for i, bf := range files {
		t.design = bf.Name
		tot.inputBytes += bf.InputBytes
		root := t.begin("flow", "design")
		if err := replayFrontend(t, bf); err != nil {
			return nil, nil, err
		}
		runtime.GC() // as before every untraced flow call
		side := t.begin("flow", "replay.clustered")
		other0 := t.unattributed
		t.attribute = true
		hpwl, shaped, err := replayClustered(t, cfg, loaded[i], model)
		t.attribute = false
		if err != nil {
			return nil, nil, err
		}
		// The other engine on the same clusters is not part of the flow.
		tot.clusteredWall += t.end(side).seconds() - (t.unattributed - other0)
		tot.shaped += shaped
		if math.Float64bits(hpwl) != math.Float64bits(last.clustered[i].HPWL) {
			tot.match = 0
		}
		replayFlat(t, cfg, loaded[i])
		// A speed-up measured without the cores to show it is noise.
		if cfg.Workers >= 2 && runtime.GOMAXPROCS(0) >= cfg.Workers {
			replayPar(t, cfg, loaded[i])
			tot.par = true
		}
		t.end(root)
	}
	return foldSpans(t, res, tot), t.spans, nil
}

// replayTotals carries what the spans do not.
type replayTotals struct {
	clusteredWall float64 // wall of the clustered-side replay, glue and tracing included
	match         float64 // 1 while every design's replay HPWL bit-equals flow.Run's
	shaped        int
	inputBytes    int64
	par           bool
}

// foldSpans turns the spans into the per-layer metric values.
func foldSpans(t *tracer, res *workloadResult, tot replayTotals) map[string]float64 {
	sp := t.spans
	v := map[string]float64{}
	sec := func(name string) float64 { s, _ := sumByName(sp, name); return s }
	mb := func(name string) float64 { _, m := sumByName(sp, name); return m }
	maxCount := func(name, key string) float64 {
		var m float64
		for i := range sp {
			if sp[i].Name == name {
				m = math.Max(m, sp[i].Counts[key])
			}
		}
		return m
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	e2e := func(name string) float64 { m, _ := findMetric(res.EndToEnd, name); return m.Median }

	for _, p := range []string{"liberty", "lef", "verilog", "def", "sdc"} {
		v[p+".parse_s"] = sec(p + ".parse")
	}
	v["frontend.input_mb"] = float64(tot.inputBytes) / (1 << 20)

	for _, n := range []string{"netlist.clone", "netlist.compact", "netlist.hypergraph", "netlist.hpwl",
		"sta.build", "sta.toppaths", "sta.activity", "sta.update", "sta.timing", "sta.hold_drv",
		"hier.cluster", "cluster.costs", "cluster.fc", "vpr.induce", "vpr.bestshape",
		"gnn.graphinput", "gnn.predict", "flow.build_clustered",
		"place.seed_global", "place.seed_overlap", "place.incr_global", "place.incr_legalize",
		"place.incr_detailed", "place.flat_global", "place.flat_legalize", "place.flat_detailed",
		"route.global", "cts.synthesize", "power.analyze"} {
		v[n+"_s"] = sec(n)
	}
	for _, k := range []string{"insts", "nets", "pins"} {
		v["netlist."+k] = sumCount(sp, "netlist.hypergraph", k)
	}
	v["sta.paths"] = sumCount(sp, "sta.toppaths", "paths")
	v["sta.update_nodes"] = sumCount(sp, "sta.update", "update_nodes")
	v["sta.build_alloc_mb"] = mb("sta.build")
	for _, k := range []string{"clusters", "levels", "singletons"} {
		v["cluster."+k] = sumCount(sp, "cluster.fc", k)
	}
	v["vpr.shaped_clusters"] = float64(tot.shaped)
	v["vpr.evals"] = sumCount(sp, "vpr.bestshape", "evals")
	v["gnn.predictions"] = sumCount(sp, "gnn.predict", "predictions")
	// Both engines on the same clusters, or 0 where a workload runs neither.
	v["gnn.speedup_vs_vpr"] = 0
	if v["gnn.predictions"] > 0 && v["vpr.evals"] > 0 {
		v["gnn.speedup_vs_vpr"] = ratio(v["vpr.bestshape_s"], v["gnn.graphinput_s"]+v["gnn.predict_s"])
	}

	clusteredS := e2e("clustered_flow_s")
	v["flow.cpu_ratio"] = ratio(clusteredS, e2e("default_flow_s"))
	v["flow.hpwl_ratio"] = ratio(e2e("clustered_hpwl_um"), e2e("default_hpwl_um"))
	v["flow.unattributed_s"] = clusteredS - t.attributed
	v["flow.replay_match"] = tot.match
	v["flow.trace_overhead"] = ratio(tot.clusteredWall, clusteredS)

	v["place.incr_iters"] = sumCount(sp, "place.incr_global", "iters")
	v["place.incr_cg_iters"] = sumCount(sp, "place.incr_global", "cg_iters")
	v["place.flat_iters"] = sumCount(sp, "place.flat_global", "iters")
	v["place.flat_cg_iters"] = sumCount(sp, "place.flat_global", "cg_iters")
	v["place.flat_bin_overflow"] = maxCount("place.flat_global", "bin_overflow")
	detailed := func(key string) float64 {
		return sumCount(sp, "place.incr_detailed", key) + sumCount(sp, "place.flat_detailed", key)
	}
	v["place.detailed_swaps"] = detailed("swaps")
	v["place.detailed_moves"] = detailed("moves")
	v["place.detailed_hpwl_gain"] = ratio(detailed("hpwl_before"), detailed("hpwl_after"))
	v["place.incr_illegal_cells"] = sumCount(sp, "place.incr_detailed", "illegal_cells")
	v["place.flat_illegal_cells"] = sumCount(sp, "place.flat_detailed", "illegal_cells")
	v["place.global_alloc_mb"] = mb("place.seed_global") + mb("place.incr_global") + mb("place.flat_global")
	v["place.detailed_alloc_mb"] = mb("place.incr_detailed") + mb("place.flat_detailed")

	v["route.wirelength_um"] = sumCount(sp, "route.global", "wirelength_um")
	v["route.overflow"] = sumCount(sp, "route.global", "overflow")
	v["route.max_congestion"] = maxCount("route.global", "max_congestion")
	v["route.vias"] = sumCount(sp, "route.global", "vias")
	v["route.alloc_mb"] = mb("route.global")
	v["cts.buffers"] = sumCount(sp, "cts.synthesize", "buffers")
	v["cts.levels"] = maxCount("cts.synthesize", "levels")
	v["cts.skew_ps"] = maxCount("cts.synthesize", "skew_ps")

	if tot.par {
		v["par.cluster_speedup"] = ratio(sec("par.cluster.w1"), sec("par.cluster.wn"))
		v["par.place_speedup"] = ratio(sec("par.place.w1"), sec("place.flat_global"))
		v["par.sta_speedup"] = ratio(sec("par.sta.w1"), sec("par.sta.wn"))
		v["par.route_speedup"] = ratio(sec("par.route.w1"), sec("par.route.wn"))
	}
	return v
}
