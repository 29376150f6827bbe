package sta

import (
	"strings"

	"ppaclust/internal/netlist"
)

// Vectorless switching-activity propagation, the reproduction's equivalent of
// OpenSTA's findClkedActivity. Activities are expressed in toggles per clock
// cycle. Clock nets toggle twice per cycle; data inputs start at
// Constraints.InputActivity; gate outputs derive from input activities via a
// per-function attenuation factor (the standard lag-one vectorless model).

// activityFactor returns the output/input activity ratio for a master,
// inferred from its name family. Unknown cells behave like buffers.
func activityFactor(master string) float64 {
	u := strings.ToUpper(master)
	switch {
	case strings.HasPrefix(u, "XOR"), strings.HasPrefix(u, "XNOR"):
		return 1.5 // XOR-class gates amplify toggling
	case strings.HasPrefix(u, "NAND"), strings.HasPrefix(u, "AND"),
		strings.HasPrefix(u, "NOR"), strings.HasPrefix(u, "OR"),
		strings.HasPrefix(u, "AOI"), strings.HasPrefix(u, "OAI"):
		return 0.75 // masking gates attenuate
	case strings.HasPrefix(u, "MUX"):
		return 0.9
	default:
		return 1.0 // INV/BUF and unknown
	}
}

const clockActivity = 2.0 // two transitions per cycle

// runActivity propagates activities over the topological order.
func (a *Analyzer) runActivity() {
	if a.actDone {
		return
	}
	n := a.numNodes()
	act := make([]float64, n)
	// Per-master activity factors, memoized by master identity so the hot
	// loop never re-parses cell-name prefixes.
	factors := make(map[*netlist.Master]float64)
	factorOf := func(m *netlist.Master) float64 {
		if f, ok := factors[m]; ok {
			return f
		}
		f := activityFactor(m.Name)
		factors[m] = f
		return f
	}
	// Seeds.
	for i := 0; i < n; i++ {
		if a.kind[i] != nodePortIn {
			continue
		}
		if a.isClk[i] {
			act[i] = clockActivity
		} else {
			act[i] = a.cons.InputActivity
		}
	}
	for _, v := range a.topo {
		// Registers resample: Q toggles at most once per cycle, at half the
		// data rate (lag-one model), regardless of clock activity.
		for _, ei := range a.inEdge[a.inOff[v]:a.inOff[v+1]] {
			if !a.isLaunchEdge(ei) {
				continue
			}
			// Find the D-pin activity of the same instance.
			dAct := a.cons.InputActivity
			inst := a.nodeInst[v]
			m := a.d.Insts[inst].Master
			base := a.instPinStart[inst]
			for pi := range m.Pins {
				mp := &m.Pins[pi]
				if mp.Dir != netlist.DirInput || mp.Clock {
					continue
				}
				if dn := a.pinNode[base+int32(pi)]; dn >= 0 {
					dAct = act[dn]
					break
				}
			}
			q := 0.5 * dAct
			if q > 1 {
				q = 1
			}
			if q > act[v] {
				act[v] = q
			}
		}
		for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
			if a.isLaunchEdge(ei) {
				continue
			}
			to := a.eTo[ei]
			var propagated float64
			if a.eArc[ei] != nil {
				propagated = act[v] * factorOf(a.d.Insts[a.nodeInst[to]].Master)
			} else {
				propagated = act[v] // wires carry activity unchanged
			}
			if a.isClk[to] {
				propagated = clockActivity
			}
			if propagated > act[to] {
				act[to] = propagated
			}
		}
	}
	a.activity = act
	a.actDone = true
}

// NetActivity returns the switching activity (toggles/cycle) of every net,
// taken from the net's driver output. Undriven nets report zero. Clock nets
// report the clock activity.
func (a *Analyzer) NetActivity() []float64 {
	a.runActivity()
	c := a.d.Compact()
	out := make([]float64, len(a.d.Nets))
	for ni, net := range a.d.Nets {
		if kd := c.NetDrv[ni]; kd >= 0 {
			if dn := a.nodeOfSlot(c, kd); dn >= 0 {
				out[ni] = a.activity[dn]
			}
		}
		if net.Clock {
			out[ni] = clockActivity
		}
	}
	return out
}

// PinActivity returns the switching activity at one pin (0 if unknown).
func (a *Analyzer) PinActivity(p netlist.PinRef) float64 {
	a.runActivity()
	if n, ok := a.nodeOfPin(p); ok {
		return a.activity[n]
	}
	return 0
}
