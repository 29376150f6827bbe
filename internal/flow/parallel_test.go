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
// the workers; an untrained model exercises it as well as a trained one.
func TestRunWorkersEquivalent(t *testing.T) {
	for _, tc := range []struct {
		name, design string
		shapes       ShapeMode
	}{
		{"aes", "aes", ShapeUniform},
		{"jpeg", "jpeg", ShapeUniform},
		{"aes-vpr-ml", "aes", ShapeVPRML},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, _ := designs.Named(tc.design)
			spec.TargetInsts = 600
			b := designs.Generate(spec)
			opt := Options{
				Seed: 3, Tool: ToolInnovus,
				Method: MethodPPAAware, Shapes: tc.shapes,
			}
			if tc.shapes == ShapeVPRML {
				opt.Model = gnn.NewModel(3)
				opt.VPRMinInsts = 10
			}
			os := opt
			os.Workers = 1
			op := opt
			op.Workers = 4
			rs, err := Run(b, os)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := Run(b, op)
			if err != nil {
				t.Fatal(err)
			}
			cmp := func(field string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: %v (seq) vs %v (par)", field, a, b)
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
				t.Errorf("integer metrics differ: seq %+v par %+v", rs, rp)
			}
			if tc.shapes == ShapeVPRML && rs.ShapedVPR == 0 {
				t.Error("no cluster went through shape selection")
			}
		})
	}
}
