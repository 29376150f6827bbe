package sta

// Design-rule (DRV) checks: max-capacitance and max-transition violations,
// the electrical sanity checks signoff flows report next to WNS/TNS.

// DRVReport summarizes electrical rule violations.
type DRVReport struct {
	// MaxCapViolations counts driver pins whose net load exceeds the
	// library's max_capacitance.
	MaxCapViolations int
	// WorstCapRatio is the largest load/limit ratio observed (>1 violating).
	WorstCapRatio float64
	// MaxSlewViolations counts pins whose propagated slew exceeds the limit.
	MaxSlewViolations int
	// WorstSlew is the largest slew seen (s).
	WorstSlew float64
	// CheckedDrivers counts output pins with a max-cap limit.
	CheckedDrivers int
}

// defaultMaxSlew is the transition limit applied when checking slews.
const defaultMaxSlew = 300e-12

// DRV runs the electrical checks against current loads and slews.
func (a *Analyzer) DRV() DRVReport {
	a.run()
	var rep DRVReport
	c := a.d.Compact()
	for ni := range a.d.Nets {
		kd := c.NetDrv[ni]
		if kd < 0 || c.PinInst[kd] < 0 {
			continue // undriven or port-driven
		}
		mp := &a.d.Insts[c.PinInst[kd]].Master.Pins[c.PinMP[kd]]
		if mp.MaxCap <= 0 {
			continue
		}
		rep.CheckedDrivers++
		ratio := a.netLoad[ni] / mp.MaxCap
		if ratio > rep.WorstCapRatio {
			rep.WorstCapRatio = ratio
		}
		if ratio > 1 {
			rep.MaxCapViolations++
		}
	}
	for i := 0; i < a.numNodes(); i++ {
		if !a.hasAT[i] {
			continue
		}
		if a.slew[i] > rep.WorstSlew {
			rep.WorstSlew = a.slew[i]
		}
		if a.slew[i] > defaultMaxSlew {
			rep.MaxSlewViolations++
		}
	}
	return rep
}
