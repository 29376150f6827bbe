package experiments

import (
	"ppaclust/internal/designs"
	"ppaclust/internal/flow"
)

// ablationRow is one arm of the PPA-awareness term ablation: which rating
// terms were enabled and the resulting post-route PPA, normalized where
// noted. This extends the paper's Table 5 (which only compares whole
// methods) with a per-term breakdown — one of the "design choices" studies
// DESIGN.md commits to.
type ablationRow struct {
	Design string
	Arm    string // full | no-hierarchy | no-timing | no-switching | connectivity
	RWL    float64
	WNSps  float64
	TNSns  float64
	PowerW float64
}

// ablationClusterTerms runs the five-arm ablation on the small designs in
// OpenROAD mode with uniform shapes (isolating the clustering terms).
func (s *Suite) ablationClusterTerms() ([]ablationRow, error) {
	names := s.smallDesigns()
	if s.Fast {
		names = names[:1]
	}
	arms := []struct {
		name string
		opt  func(o *flow.Options)
	}{
		{"full", func(o *flow.Options) {}},
		{"no-hierarchy", func(o *flow.Options) { o.NoHierarchy = true }},
		{"no-timing", func(o *flow.Options) { o.Beta = -1 }},
		{"no-switching", func(o *flow.Options) { o.Gamma = -1 }},
		{"connectivity", func(o *flow.Options) { o.NoHierarchy = true; o.Beta = -1; o.Gamma = -1 }},
	}
	seeds := []int64{s.Seed, s.Seed + 1}
	var rows []ablationRow
	for _, name := range names {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		def, err := flow.RunDefault(b, flow.Options{Seed: s.Seed, Workers: s.Workers})
		if err != nil {
			return nil, err
		}
		for _, arm := range arms {
			row := ablationRow{Design: designs.PaperNames[name], Arm: arm.name}
			for _, seed := range seeds {
				o := flow.Options{Seed: seed, Method: flow.MethodPPAAware, Shapes: flow.ShapeUniform,
					Workers: s.Workers}
				arm.opt(&o)
				r, err := flow.Run(b, o)
				if err != nil {
					return nil, err
				}
				row.RWL += r.RoutedWL / def.RoutedWL / float64(len(seeds))
				row.WNSps += r.WNS * 1e12 / float64(len(seeds))
				row.TNSns += r.TNS * 1e9 / float64(len(seeds))
				row.PowerW += r.Power / float64(len(seeds))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
