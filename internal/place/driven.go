// Timing- and routability-driven feedback for the global placer.
//
// The quadratic loop minimizes weighted wirelength; on its own it never sees
// timing or congestion. This file closes that loop the way OpenROAD's
// global_placement does: at configurable bin-overflow checkpoints (default
// 0.5/0.3/0.2, à la -timing_driven_net_reweight_overflow), the placer
// commits its coordinates and (a) runs STA, ranks nets by worst slack and
// multiplicatively reweights the most critical ones so the next B2B
// assemblies pull them shorter, and (b) runs the GCell global router on a
// coarse grid and inflates the spreading areas of cells sitting in congested
// GCells so the next spreading rounds push them apart.
//
// Determinism: a checkpoint fires when the round's overflow first drops
// below the next threshold — a pure function of the overflow sequence, which
// is itself bit-identical across worker counts. Inside a checkpoint, the STA
// is sequential and the router's congestion is bit-identical at any worker
// count (its package's contract), the criticality ranking breaks slack ties
// by net ID, and the weight/area updates walk nets and cells in index order.
// So the whole feedback path preserves the placer's bit-identity contract.
package place

import (
	"math"
	"sort"

	"ppaclust/internal/route"
	"ppaclust/internal/sta"
)

// The feedback schedule and strengths, each with the OpenROAD
// global_placement flag it mirrors.
const (
	// timingNetsPercent is the share of rankable nets reweighted per timing
	// checkpoint (-timing_driven_nets_percentage).
	timingNetsPercent = 10.0
	// timingNetReweight is the weight multiplier applied to the single most
	// critical net; the boost ramps linearly down to 1 across the selected
	// set (-timing_driven_net_weight_max). Typed, so that the boost (this
	// minus 1) is the float64 difference every recorded result was produced
	// with, not the exactly evaluated constant 0.9.
	timingNetReweight float64 = 1.9
	// netWeightMax caps a net's accumulated weight at this multiple of its
	// original weight, so repeated checkpoints cannot run away.
	netWeightMax = 5.0
	// inflationRatioCoef scales a congested cell's area inflation: ratio =
	// 1 + inflationRatioCoef*(congestion-threshold)
	// (-routability_inflation_ratio_coef).
	inflationRatioCoef = 2.5
	// maxInflationRatio caps a cell's accumulated area inflation relative to
	// its physical area (-routability_max_inflation_ratio) — a deliberately
	// tight cap: with the hotspot-selective threshold, modest inflation
	// flattens congestion peaks while keeping the HPWL cost of the extra
	// spreading small.
	maxInflationRatio = 1.25
	// maxInflationIters bounds how many checkpoints run the router and
	// inflate (-routability_max_inflation_iter).
	maxInflationIters = 3
)

// checkpointOverflows are the descending bin-overflow thresholds at which the
// timing/routability feedback fires, one checkpoint per threshold, at most
// one per round (-timing_driven_net_reweight_overflow). Read-only.
var checkpointOverflows = [...]float64{0.5, 0.3, 0.2}

// drivenEnabled reports whether any feedback checkpoint could still fire.
func (p *placer) drivenEnabled() bool {
	if p.opt.TimingDriven {
		return true
	}
	return p.opt.RoutabilityDriven && p.inflations < maxInflationIters
}

// checkpoint fires the next overflow checkpoint if this round's overflow
// reached it, and reports whether any feedback actually changed state. At
// most one checkpoint fires per round; if overflow skips below several
// thresholds at once, the remaining ones fire on the following rounds.
func (p *placer) checkpoint(overflow float64) bool {
	if !p.drivenEnabled() || p.ckptNext >= len(checkpointOverflows) {
		return false
	}
	if overflow > checkpointOverflows[p.ckptNext] {
		return false
	}
	p.ckptNext++
	// Both feedback passes read committed instance coordinates; the final
	// writeBack after the loop overwrites these with the converged ones.
	p.writeBack()
	ran := false
	if p.opt.TimingDriven {
		ran = p.reweightCriticalNets() || ran
	}
	if p.opt.RoutabilityDriven && p.inflations < maxInflationIters {
		ran = p.inflateCongested() || ran
	}
	return ran
}

// reweightCriticalNets runs STA on the committed coordinates and boosts the
// B2B weights of the top timingNetsPercent most critical active nets. The
// boost ramps linearly from timingNetReweight at the worst net down to 1 at
// the selection edge, and the accumulated weight is capped at netWeightMax
// times the net's original weight.
func (p *placer) reweightCriticalNets() bool {
	if p.an == nil {
		p.an = sta.New(p.d, p.opt.TimingCons)
		p.netW0 = append([]float64(nil), p.netW...)
	} else {
		// Later checkpoints reuse the analyzer: same topology, moved cells.
		p.an.Update()
	}
	p.slackBuf = p.an.NetSlackInto(p.slackBuf)
	slack := p.slackBuf
	cand := p.critBuf[:0]
	for _, ni := range p.activeNets {
		if !math.IsInf(slack[ni], 1) {
			cand = append(cand, ni)
		}
	}
	p.critBuf = cand
	if len(cand) == 0 {
		return false
	}
	sort.Slice(cand, func(a, b int) bool {
		sa, sb := slack[cand[a]], slack[cand[b]]
		if sa != sb {
			return sa < sb
		}
		return cand[a] < cand[b] // slack ties resolve by net ID
	})
	k := int(math.Ceil(float64(len(cand)) * timingNetsPercent / 100))
	if k > len(cand) {
		k = len(cand)
	}
	boost := timingNetReweight - 1
	for i := 0; i < k; i++ {
		ni := cand[i]
		w := p.netW[ni] * (1 + boost*float64(k-i)/float64(k))
		if maxW := p.netW0[ni] * netWeightMax; w > maxW {
			w = maxW
		}
		p.netW[ni] = w
	}
	p.reweights++
	return true
}

// inflateCongested routes the committed placement on the coarse auto GCell
// grid and scales up the spreading areas of movable cells whose GCell is
// over capacity. Only p.area changes — the physical w/h stay untouched, so
// clamping, write-back and legalization keep using real cell dimensions.
func (p *placer) inflateCongested() bool {
	rres := route.GlobalRoute(p.d, route.Options{Workers: p.workers})
	cong := rres.Grid.CellCongestion()
	nx, _ := rres.Grid.Dims()
	// Inflate hotspots only: when a design is congested across the board,
	// inflating every over-capacity GCell just scales all areas uniformly —
	// pure wirelength loss with no relief. The threshold sits halfway between
	// nominal capacity and the worst GCell, so inflation targets the cells
	// whose spreading actually flattens the congestion peak.
	thresh := 1.0
	if rres.MaxCongestion > 1 {
		thresh = 1 + (rres.MaxCongestion-1)/2
	}
	changed := false
	for vi := range p.movable {
		i, j := rres.Grid.Cell(p.x[vi], p.y[vi])
		c := cong[j*nx+i]
		if c <= thresh {
			continue
		}
		ratio := 1 + inflationRatioCoef*(c-thresh)
		if ratio > maxInflationRatio {
			ratio = maxInflationRatio
		}
		a := p.area[vi] * ratio
		if maxA := p.w[vi] * p.h[vi] * maxInflationRatio; a > maxA {
			a = maxA
		}
		if a != p.area[vi] {
			p.area[vi] = a
			changed = true
		}
	}
	if changed {
		p.inflations++
	}
	return changed
}
