package flow

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/gnn"
)

// TestRunWorkersEquivalent is the end-to-end determinism check: a full
// clustered flow (PPA-aware clustering over virtual-STA costs, seeded +
// incremental placement, routing, CTS, propagated-clock STA, power) must
// produce bit-identical metrics with Workers=1 and Workers=4. The vpr-ml case
// adds GNN shape selection, whose 20 candidates per cluster are spread over
// the workers; an untrained model exercises it as well as a trained one. The
// scale-10k case is the only place a generated ScaleSpec design goes through
// generate -> cluster -> place -> STA -> route -> CTS at several worker
// counts: it is generated at the worker count it then runs at, and the flat
// default flow is held to the same comparison.
func TestRunWorkersEquivalent(t *testing.T) {
	named := func(design string) func(int) *designs.Benchmark {
		return func(int) *designs.Benchmark {
			spec, _ := designs.Named(design)
			spec.TargetInsts = 600
			return designs.Generate(spec)
		}
	}
	for _, tc := range []struct {
		name    string
		bench   func(workers int) *designs.Benchmark
		tool    Tool
		shapes  ShapeMode
		workers []int // compared against Workers=1
		flat    bool  // RunDefault too
	}{
		{"aes", named("aes"), ToolInnovus, ShapeUniform, []int{4}, false},
		{"jpeg", named("jpeg"), ToolInnovus, ShapeUniform, []int{4}, false},
		{"aes-vpr-ml", named("aes"), ToolInnovus, ShapeVPRML, []int{4}, false},
		{"scale-10k", func(w int) *designs.Benchmark {
			return designs.GenerateWorkers(designs.ScaleSpec(10000, 4243), w)
		}, ToolOpenROAD, ShapeUniform, []int{2, 8}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{
				Seed: 3, Tool: tc.tool,
				Method: MethodPPAAware, Shapes: tc.shapes,
			}
			if tc.shapes == ShapeVPRML {
				opt.Model = gnn.NewModel(3)
				opt.VPRMinInsts = 10
			}
			type entry struct {
				flow string
				run  func(*designs.Benchmark, Options) (*Result, error)
			}
			flows := []entry{{"Run", Run}}
			if tc.flat {
				flows = append(flows, entry{"RunDefault", RunDefault})
			}
			for _, f := range flows {
				opt.Workers = 1
				rs, err := f.run(tc.bench(1), opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range tc.workers {
					opt.Workers = w
					rp, err := f.run(tc.bench(w), opt)
					if err != nil {
						t.Fatal(err)
					}
					cmp := func(field string, a, b float64) {
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Errorf("%s W=%d %s: %v (seq) vs %v (par)", f.flow, w, field, a, b)
						}
					}
					cmp("HPWL", rs.HPWL, rp.HPWL)
					cmp("RoutedWL", rs.RoutedWL, rp.RoutedWL)
					cmp("WNS", rs.WNS, rp.WNS)
					cmp("TNS", rs.TNS, rp.TNS)
					cmp("HoldWNS", rs.HoldWNS, rp.HoldWNS)
					cmp("Power", rs.Power, rp.Power)
					cmp("ClockWL", rs.ClockWL, rp.ClockWL)
					if rs.Clusters != rp.Clusters || rs.Singletons != rp.Singletons ||
						rs.ShapedVPR != rp.ShapedVPR || rs.Overflow != rp.Overflow ||
						rs.DRVCap != rp.DRVCap || rs.DRVSlew != rp.DRVSlew {
						t.Errorf("%s W=%d: integer metrics differ: seq %+v par %+v", f.flow, w, rs, rp)
					}
				}
				if tc.shapes == ShapeVPRML && rs.ShapedVPR == 0 {
					t.Error("no cluster went through shape selection")
				}
			}
		})
	}
}
