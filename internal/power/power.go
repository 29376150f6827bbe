// Package power computes design power from switching activity: dynamic
// switching power over net capacitances, internal (short-circuit + parasitic)
// power from library arc energies, and static leakage. It is the
// reproduction's stand-in for OpenSTA/Innovus vectorless power analysis.
package power

import (
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// DefaultVdd is the supply voltage used when the caller does not override it.
const DefaultVdd = 1.1 // volts, NanGate45-like

// Report is a power breakdown in watts.
type Report struct {
	Switching float64
	Internal  float64
	Leakage   float64
}

// Total returns the sum of the components.
func (r Report) Total() float64 { return r.Switching + r.Internal + r.Leakage }

// Analyze computes the power report for the analyzer's design at supply vdd.
// Activities are toggles per clock cycle; frequency comes from the analyzer's
// clock period.
func Analyze(a *sta.Analyzer, vdd float64) Report {
	d := a.Design()
	cons := a.Constraints()
	freq := 0.0
	if cons.ClockPeriod > 0 {
		freq = 1 / cons.ClockPeriod
	}
	act := a.NetActivity()
	var rep Report
	// Switching power: 1/2 C V^2 * toggles/sec per net.
	for _, net := range d.Nets {
		c := a.NetLoad(net.ID)
		rep.Switching += 0.5 * c * vdd * vdd * act[net.ID] * freq
	}
	// Internal power: arc energy per output transition.
	for _, inst := range d.Insts {
		rep.Leakage += inst.Master.Leakage
		for pi := range inst.Master.Pins {
			mp := &inst.Master.Pins[pi]
			if mp.Dir != netlist.DirOutput || len(mp.Arcs) == 0 {
				continue
			}
			outAct := a.PinActivity(netlist.PinRef{Inst: inst.ID, Pin: pi})
			var energy float64
			for ai := range mp.Arcs {
				energy += mp.Arcs[ai].Energy
			}
			energy /= float64(len(mp.Arcs))
			rep.Internal += energy * outAct * freq
		}
	}
	return rep
}
