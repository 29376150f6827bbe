// Timing-driven feedback for the global placer.
//
// The quadratic loop minimizes weighted wirelength; on its own it never sees
// timing. This file closes that loop the way OpenROAD's global_placement
// does: at bin-overflow checkpoints (0.5/0.3/0.2, à la
// -timing_driven_net_reweight_overflow), the placer commits its coordinates,
// runs STA, ranks nets by worst slack and multiplicatively reweights the most
// critical ones so the next B2B assemblies pull them shorter. A run too short
// to reach a threshold (the clustered flow's 6-round incremental run) fires
// the checkpoint at a deadline instead, so every checkpoint has rounds after
// it to act.
//
// Determinism: a checkpoint fires when the round's overflow first drops
// below the next threshold, or at its deadline round — a pure function of
// the overflow sequence and the round count, which are themselves
// bit-identical across worker counts. Inside a checkpoint, the STA
// is sequential, the criticality ranking breaks slack ties by net ID, and the
// weight updates walk nets in index order. So the feedback path preserves the
// placer's bit-identity contract.
package place

import (
	"math"
	"sort"

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
)

// checkpointOverflows are the descending bin-overflow thresholds at which the
// timing feedback fires, one checkpoint per threshold, at most one per round
// (-timing_driven_net_reweight_overflow). Read-only.
var checkpointOverflows = [...]float64{0.5, 0.3, 0.2}

// checkpoint fires the next overflow checkpoint if this round's overflow
// reached it, and reports whether the feedback changed any net weight. At
// most one checkpoint fires per round; if overflow skips below several
// thresholds at once, the remaining ones fire on the following rounds.
// iter is the round just run (0-based) of the run's rounds. A checkpoint
// fires at the latest in the round that leaves one round for each later
// checkpoint and one more to absorb the last, and never in the last round,
// whose reweighted nets no later round would read.
func (p *placer) checkpoint(overflow float64, iter, rounds int) bool {
	if !p.opt.TimingDriven || p.ckptNext >= len(checkpointOverflows) || iter+1 >= rounds {
		return false
	}
	deadline := rounds - (len(checkpointOverflows) - p.ckptNext) - 1
	if overflow > checkpointOverflows[p.ckptNext] && iter < deadline {
		return false
	}
	p.ckptNext++
	// The STA reads committed instance coordinates; the final writeBack
	// after the loop overwrites these with the converged ones.
	p.writeBack()
	return p.reweightCriticalNets()
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
