package sta

import (
	"math"

	"ppaclust/internal/netlist"
)

// Hold (min-delay) analysis: the fastest arrival at each register data pin
// must not beat the same-cycle clock edge plus the hold requirement. This
// mirrors the max-delay machinery with min-propagation; wire delays and arc
// delays are reused (a single corner — the common academic simplification).

// HoldSummary reports hold-check results.
type HoldSummary struct {
	WHS       float64 // worst hold slack (<= 0 when violating, else >= 0)
	THS       float64 // total (negative) hold slack
	Endpoints int
	Failing   int
}

// HoldTiming propagates minimum arrivals and evaluates hold checks at every
// register data input:
//
//	slack_hold = AT_min(D) - (clk_arrival + t_hold)
func (a *Analyzer) HoldTiming() HoldSummary {
	n := a.numNodes()
	minAT := make([]float64, n)
	hasMin := make([]bool, n)
	for i := range minAT {
		minAT[i] = math.Inf(1)
	}
	// Seed startpoints: input ports at their input delay, launch clk->Q at
	// clock arrival + min clk-to-q.
	for i := 0; i < n; i++ {
		if a.kind[i] == nodePortIn {
			if a.isClk[i] {
				minAT[i] = 0
			} else {
				minAT[i] = a.cons.InputDelay
			}
			hasMin[i] = true
		}
	}
	for _, v := range a.topo {
		for _, ei := range a.inEdge[a.inOff[v]:a.inOff[v+1]] {
			if !a.isLaunchEdge(ei) {
				continue
			}
			arc := a.eArc[ei]
			load := a.loadOf(v)
			clkAt := a.clockAtNode(a.eFrom[ei])
			at := clkAt + arc.Delay.Lookup(a.cons.InputSlew, load)
			if at < minAT[v] {
				minAT[v] = at
				hasMin[v] = true
			}
		}
		if !hasMin[v] {
			continue
		}
		for _, ei := range a.outEdge[a.outOff[v]:a.outOff[v+1]] {
			if a.isLaunchEdge(ei) {
				continue
			}
			arc := a.eArc[ei]
			to := a.eTo[ei]
			var at float64
			if arc != nil {
				at = minAT[v] + arc.Delay.Lookup(a.cons.InputSlew, a.loadOf(to))
			} else {
				at = minAT[v] + a.wireDelay(ei)
			}
			if at < minAT[to] {
				minAT[to] = at
				hasMin[to] = true
			}
		}
	}

	var sum HoldSummary
	for i := 0; i < n; i++ {
		if a.kind[i] != nodeInput || !a.endp[i] || !hasMin[i] {
			continue
		}
		for s := a.checkOff[i]; s < a.checkOff[i+1]; s++ {
			arc := a.checkArc[s]
			if arc.Kind != netlist.ArcHold {
				continue
			}
			hold := arc.Delay.Lookup(a.cons.InputSlew, 0)
			clkAt := a.clockAtNode(a.checkClk[s])
			slack := minAT[i] - (clkAt + hold)
			sum.Endpoints++
			if slack < 0 {
				sum.Failing++
				sum.THS += slack
				if slack < sum.WHS {
					sum.WHS = slack
				}
			}
		}
	}
	return sum
}
