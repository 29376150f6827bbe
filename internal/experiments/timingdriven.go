// The -timing-driven A/B comparison: the same flow run twice, with and
// without the placer's timing feedback checkpoints, on the Table-3/4
// protocols (OpenROAD mode on the four routable designs, Innovus mode on all
// six). The clustered PPA-aware flow with uniform shapes is used for both
// arms — the model-free configuration — so the only difference between A and
// B is the place-level feedback under test.
package experiments

import (
	"ppaclust/internal/designs"
	"ppaclust/internal/flow"
)

// TDRow is one design/tool arm of the timing-driven A/B comparison. Every
// field is a pure quality metric (no wall-clock, no worker counts), so
// serialized rows must be byte-identical at any worker count.
type TDRow struct {
	Design string `json:"design"`
	Tool   string `json:"tool"`
	Insts  int    `json:"insts"`

	BaseHPWL  float64 `json:"base_hpwl"`
	TDHPWL    float64 `json:"td_hpwl"`
	HPWLRatio float64 `json:"hpwl_ratio"` // td/base, 1.0 = unchanged

	BaseWNSps float64 `json:"base_wns_ps"`
	TDWNSps   float64 `json:"td_wns_ps"`
	BaseTNSns float64 `json:"base_tns_ns"`
	TDTNSns   float64 `json:"td_tns_ns"`
	TNSGainNs float64 `json:"tns_gain_ns"` // td - base; TNS <= 0, so > 0 = improved

	BaseMaxCongestion float64 `json:"base_max_congestion"`
	TDMaxCongestion   float64 `json:"td_max_congestion"`
	BaseRouteOverflow int     `json:"base_route_overflow"`
	TDRouteOverflow   int     `json:"td_route_overflow"`
}

// MakeTDRow derives one A/B row from a baseline run and a timing-driven run
// of the same design.
func MakeTDRow(design, tool string, insts int, base, td *flow.Result) TDRow {
	return TDRow{
		Design:            design,
		Tool:              tool,
		Insts:             insts,
		BaseHPWL:          base.HPWL,
		TDHPWL:            td.HPWL,
		HPWLRatio:         td.HPWL / base.HPWL,
		BaseWNSps:         base.WNS * 1e12,
		TDWNSps:           td.WNS * 1e12,
		BaseTNSns:         base.TNS * 1e9,
		TDTNSns:           td.TNS * 1e9,
		TNSGainNs:         (td.TNS - base.TNS) * 1e9,
		BaseMaxCongestion: base.MaxCongestion,
		TDMaxCongestion:   td.MaxCongestion,
		BaseRouteOverflow: base.Overflow,
		TDRouteOverflow:   td.Overflow,
	}
}

// TimingDrivenAB runs the Table-3/4 protocol A/B: per (design, tool) job,
// the clustered flow without feedback vs the identical flow with
// TimingDriven placement enabled.
func (s *Suite) TimingDrivenAB() ([]TDRow, error) {
	type job struct {
		name string
		tool flow.Tool
	}
	var jobs []job
	t3 := []string{"aes", "jpeg", "ariane", "bp"}
	if s.Fast {
		t3 = []string{"aes", "jpeg"}
	}
	for _, n := range t3 {
		jobs = append(jobs, job{n, flow.ToolOpenROAD})
	}
	for _, n := range s.allDesigns() {
		jobs = append(jobs, job{n, flow.ToolInnovus})
	}
	var rows []TDRow
	for _, j := range jobs {
		b, err := s.bench(j.name)
		if err != nil {
			return nil, err
		}
		opt := flow.Options{
			Seed: s.Seed, Tool: j.tool,
			Method: flow.MethodPPAAware, Shapes: flow.ShapeUniform,
			Workers: s.Workers,
		}
		base, err := flow.Run(b, opt)
		if err != nil {
			return nil, err
		}
		opt.TimingDriven = true
		td, err := flow.Run(b, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MakeTDRow(designs.PaperNames[j.name], j.tool.String(), len(b.Design.Insts), base, td))
	}
	return rows, nil
}
