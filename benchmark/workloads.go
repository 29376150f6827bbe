package main

import (
	"ppaclust/internal/designs"
	"ppaclust/internal/flow"
)

// workload is one fixed set of inputs and flow options. Names are stable:
// later issues refer to them.
type workload struct {
	Name string
	Why  string
	// Cells sizes a ScaleSpec workload; Named lists paper designs instead.
	Cells  int
	Named  []string
	Tool   flow.Tool
	Shapes flow.ShapeMode
	// Reps is the suite-mode repetition count.
	Reps int
	// LoadRepeat and DefaultRepeat repeat a short call inside each
	// repetition so every timed quantity covers a second or more of work;
	// the repetition reports the per-call median. They are part of the
	// benchmark definition and identical on every commit.
	LoadRepeat    int
	DefaultRepeat int
	// BothEngines makes the traced replay time exact V-P&R and the GNN on
	// the same clusters (the flow's own engine first).
	BothEngines bool
}

// smokeCells is the ScaleSpec size of the -smoke scale and of the warm-up.
const smokeCells = 2000

var workloads = []workload{
	{
		Name: "scale100k", Cells: 100000, Tool: flow.ToolOpenROAD, Shapes: flow.ShapeUniform,
		Reps: 5, LoadRepeat: 3, DefaultRepeat: 1,
		Why: "Table-2 CPU claim at 100k cells: place does ~85% of both flows in the 20k-200k aggregation-preconditioner band, cluster ~13%, vpr/gnn nothing",
	},
	{
		Name: "scale250k", Cells: 210000, Tool: flow.ToolOpenROAD, Shapes: flow.ShapeUniform,
		Reps: 3, LoadRepeat: 1, DefaultRepeat: 1,
		Why: "210k cells: the >=200k multigrid-warm-start band of the placer, peak memory and parse throughput of a ~40 MB file set; same layers as scale100k in another solver regime",
	},
	{
		Name: "tables-ml", Named: []string{"aes", "jpeg", "ariane"}, Tool: flow.ToolInnovus, Shapes: flow.ShapeVPRML,
		Reps: 3, LoadRepeat: 10, DefaultRepeat: 4, BothEngines: true,
		Why: "Table-3/4 protocol on aes/jpeg/ariane with the trained GNN: gnn does ~95% of the clustered flow; many small region-constrained place calls where per-call fixed costs matter",
	},
	{
		Name: "vpr10k", Cells: 10000, Tool: flow.ToolOpenROAD, Shapes: flow.ShapeVPR,
		Reps: 5, LoadRepeat: 25, DefaultRepeat: 8, BothEngines: true,
		Why: "exact V-P&R does ~93%: ~120 tiny place.Global+route.GlobalRoute runs on ~1.5k-cell sub-netlists; per-call set-up cost shows here, a gnn change must not move it",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specs derives the workload's design specs from the benchmark seed:
// ScaleSpec(n, 4242+seed) and, for named designs, spec.Seed+seed-1.
func (w workload) specs(seed int64, smoke bool) []designs.Spec {
	if w.Cells > 0 {
		n := w.Cells
		if smoke {
			n = smokeCells
		}
		return []designs.Spec{designs.ScaleSpec(n, 4242+seed)}
	}
	names := w.Named
	if smoke {
		names = names[:1]
	}
	out := make([]designs.Spec, 0, len(names))
	for _, name := range names {
		spec, ok := designs.Named(name)
		if !ok {
			continue // names are literals above; Named knows all of them
		}
		spec.Seed += seed - 1
		out = append(out, spec)
	}
	return out
}

// metricDef names one metric. Every metric is lower-is-better or an
// informational count; Bound is the share of the old median by which an
// end-to-end metric may worsen before -compare calls it a regression.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64
	// Exact marks quantities that repeat bit for bit at one seed (quality
	// numbers and counts): -compare reports them as equal|changed too.
	Exact bool
	// PerSeed marks end-to-end quantities that follow the seed-drawn design
	// too closely to be compared between runs at different seeds (a worst
	// path, a slack sum, an overflow count). -compare gates them like the
	// rest; BENCHMARK.json, whose driver draws a new seed for every run,
	// lists them under per_layer and gets them from the traced run.
	PerSeed bool
}

// endToEnd is the suite's end-to-end list. BENCHMARK.json's end_to_end is
// this list without the PerSeed entries (bench_test.go holds the two
// together). The time and memory bounds are as wide as they are because the
// recording machine's speed drifts by +-15% over minutes.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "load_s", Unit: "s", Bound: 0.25},
	{Name: "clustered_flow_s", Unit: "s", Bound: 0.25},
	{Name: "default_flow_s", Unit: "s", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.20},
	{Name: "clustered_hpwl_um", Unit: "um", Bound: 0.15, Exact: true},
	{Name: "clustered_rwl_um", Unit: "um", Bound: 0.15, Exact: true},
	{Name: "clustered_power_mw", Unit: "mW", Bound: 0.10, Exact: true},
	{Name: "clustered_wns_viol_ns", Unit: "ns", Bound: 0.05, Exact: true, PerSeed: true},
	{Name: "clustered_tns_viol_ns", Unit: "ns", Bound: 0.05, Exact: true, PerSeed: true},
	{Name: "clustered_route_overflow", Unit: "tracks", Bound: 0.05, Exact: true, PerSeed: true},
	{Name: "default_hpwl_um", Unit: "um", Bound: 0.15, Exact: true},
	{Name: "default_rwl_um", Unit: "um", Bound: 0.15, Exact: true},
	{Name: "default_tns_viol_ns", Unit: "ns", Bound: 0.05, Exact: true, PerSeed: true},
}

// perLayer, after the PerSeed entries above, is BENCHMARK.json's per_layer list: times in s are sums of
// replay spans over the workload's designs, *_alloc_mb are span allocation
// deltas, the rest are exact counts or ratios from the layers' results.
var perLayer = []metricDef{
	{Name: "liberty.parse_s", Unit: "s"}, {Name: "lef.parse_s", Unit: "s"},
	{Name: "verilog.parse_s", Unit: "s"}, {Name: "def.parse_s", Unit: "s"},
	{Name: "sdc.parse_s", Unit: "s"}, {Name: "frontend.input_mb", Unit: "MB", Exact: true},

	{Name: "netlist.clone_s", Unit: "s"}, {Name: "netlist.compact_s", Unit: "s"},
	{Name: "netlist.hypergraph_s", Unit: "s"}, {Name: "netlist.hpwl_s", Unit: "s"},
	{Name: "netlist.insts", Unit: "count", Exact: true}, {Name: "netlist.nets", Unit: "count", Exact: true},
	{Name: "netlist.pins", Unit: "count", Exact: true},

	{Name: "sta.build_s", Unit: "s"}, {Name: "sta.toppaths_s", Unit: "s"},
	{Name: "sta.activity_s", Unit: "s"}, {Name: "sta.update_s", Unit: "s"},
	{Name: "sta.timing_s", Unit: "s"}, {Name: "sta.hold_drv_s", Unit: "s"},
	{Name: "sta.paths", Unit: "count", Exact: true}, {Name: "sta.update_nodes", Unit: "count", Exact: true},
	{Name: "sta.build_alloc_mb", Unit: "MB"},

	{Name: "hier.cluster_s", Unit: "s"},

	{Name: "cluster.costs_s", Unit: "s"}, {Name: "cluster.fc_s", Unit: "s"},
	{Name: "cluster.clusters", Unit: "count", Exact: true}, {Name: "cluster.levels", Unit: "count", Exact: true},
	{Name: "cluster.singletons", Unit: "count", Exact: true},

	{Name: "vpr.induce_s", Unit: "s"}, {Name: "vpr.bestshape_s", Unit: "s"},
	{Name: "vpr.shaped_clusters", Unit: "count", Exact: true}, {Name: "vpr.evals", Unit: "count", Exact: true},

	{Name: "gnn.fit_s", Unit: "s"}, {Name: "gnn.graphinput_s", Unit: "s"},
	{Name: "gnn.predict_s", Unit: "s"}, {Name: "gnn.predictions", Unit: "count", Exact: true},
	{Name: "gnn.speedup_vs_vpr", Unit: "ratio"},

	{Name: "flow.build_clustered_s", Unit: "s"}, {Name: "flow.cpu_ratio", Unit: "ratio"},
	{Name: "flow.hpwl_ratio", Unit: "ratio", Exact: true}, {Name: "flow.unattributed_s", Unit: "s"},
	{Name: "flow.replay_match", Unit: "count", Exact: true}, {Name: "flow.trace_overhead", Unit: "ratio"},

	{Name: "place.seed_global_s", Unit: "s"}, {Name: "place.seed_overlap_s", Unit: "s"},
	{Name: "place.incr_global_s", Unit: "s"}, {Name: "place.incr_legalize_s", Unit: "s"},
	{Name: "place.incr_detailed_s", Unit: "s"}, {Name: "place.flat_global_s", Unit: "s"},
	{Name: "place.flat_legalize_s", Unit: "s"}, {Name: "place.flat_detailed_s", Unit: "s"},
	{Name: "place.incr_iters", Unit: "count", Exact: true}, {Name: "place.incr_cg_iters", Unit: "count", Exact: true},
	{Name: "place.flat_iters", Unit: "count", Exact: true}, {Name: "place.flat_cg_iters", Unit: "count", Exact: true},
	{Name: "place.flat_bin_overflow", Unit: "ratio", Exact: true},
	{Name: "place.detailed_swaps", Unit: "count", Exact: true}, {Name: "place.detailed_moves", Unit: "count", Exact: true},
	{Name: "place.detailed_hpwl_gain", Unit: "ratio", Exact: true},
	{Name: "place.incr_illegal_cells", Unit: "count", Exact: true}, {Name: "place.flat_illegal_cells", Unit: "count", Exact: true},
	{Name: "place.global_alloc_mb", Unit: "MB"}, {Name: "place.detailed_alloc_mb", Unit: "MB"},

	{Name: "route.global_s", Unit: "s"}, {Name: "route.wirelength_um", Unit: "um", Exact: true},
	{Name: "route.overflow", Unit: "tracks", Exact: true}, {Name: "route.max_congestion", Unit: "ratio", Exact: true},
	{Name: "route.vias", Unit: "count", Exact: true}, {Name: "route.alloc_mb", Unit: "MB"},

	{Name: "cts.synthesize_s", Unit: "s"}, {Name: "cts.buffers", Unit: "count", Exact: true},
	{Name: "cts.levels", Unit: "count", Exact: true}, {Name: "cts.skew_ps", Unit: "ps", Exact: true},

	{Name: "power.analyze_s", Unit: "s"},

	{Name: "par.cluster_speedup", Unit: "ratio"}, {Name: "par.place_speedup", Unit: "ratio"},
	{Name: "par.sta_speedup", Unit: "ratio"}, {Name: "par.route_speedup", Unit: "ratio"},
}
