// Package vpr implements the paper's virtualized P&R (V-P&R) framework
// (Section 3.2): for a given cluster, it induces the cluster's sub-netlist
// (creating IO ports for inter-cluster nets), sweeps 20 candidate shapes
// (aspect ratio x utilization), runs placement and global routing on a
// virtual die for each, and scores them with
//
//	Cost_HPWL  = HPWL_avg / (Width_core + Height_core)          (Eq. 4)
//	Cost_Cong  = mean congestion over the top-X% GCells          (Eq. 5)
//	Total Cost = Cost_HPWL + delta * Cost_Cong
//
// The shape with minimum Total Cost models the cluster during seeded
// placement. Package gnn predicts the same Total Cost without the P&R runs
// (the "ML-accelerated" variant).
//
// The unit of parallel work is one evaluation: BestShape spreads the 20
// candidates over Options.Workers goroutines, and the place and route runs
// inside an evaluation are always sequential — a sub-netlist is cluster-sized
// by construction, too small for fan-out inside a solve to pay for itself.
// Evaluations land in per-candidate slots and the winner is picked in
// candidate order, so the result is bit-identical at any worker count.
package vpr

import (
	"fmt"
	"math"
	"slices"

	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/place"
	"ppaclust/internal/route"
)

// Shape is one cluster-shape candidate.
type Shape struct {
	AspectRatio float64 // core height / width
	Utilization float64
}

// ShapeCandidates returns the paper's 20 sweep points: AR in [0.75, 1.75]
// step 0.25, utilization in [0.75, 0.90] step 0.05.
func ShapeCandidates() []Shape {
	var out []Shape
	for ar := 0.75; ar <= 1.75+1e-9; ar += 0.25 {
		for u := 0.75; u <= 0.90+1e-9; u += 0.05 {
			out = append(out, Shape{AspectRatio: round2(ar), Utilization: round2(u)})
		}
	}
	return out
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// UniformShape is the fixed assignment used by the "Uniform" ablation arm in
// Table 6 (utilization 0.9, aspect ratio 1.0).
var UniformShape = Shape{AspectRatio: 1.0, Utilization: 0.90}

// Eval is the outcome of evaluating one shape candidate.
type Eval struct {
	Shape     Shape
	CostHPWL  float64
	CostCong  float64
	TotalCost float64
	HPWL      float64
	CoreW     float64
	CoreH     float64
}

// Options configures the V-P&R runs.
type Options struct {
	// Seed drives placement determinism.
	Seed int64
	// Workers bounds the goroutines BestShape evaluates candidates on: 0 =
	// auto (PPACLUST_WORKERS, else GOMAXPROCS), 1 = the plain inline loop.
	// The outcome is bit-identical for every worker count.
	Workers int
}

const (
	// topPercent is X in Eq. 5.
	topPercent = 10
	// delta is the congestion normalization factor.
	delta = 0.01
	// placeIterations bounds the virtual placement effort.
	placeIterations = 10
	// routeCapacity is the per-edge track capacity of the virtual router:
	// deliberately tight so Cost_Congestion discriminates between
	// utilizations (the whole point of Eq. 5).
	routeCapacity = 6
)

// Runner is the exact (P&R-based) cost evaluator.
type Runner struct {
	Opt Options
}

// evaluateInPlace runs one virtual P&R of d at the given shape and returns
// all costs. d is a design the caller owns, typically a clone. Whatever an
// earlier evaluation left in d does not matter: floorplan rewrites the core,
// the die and every port, and a from-scratch Global ignores prior instance
// positions, so one clone serves any sequence of shapes.
func (r Runner) evaluateInPlace(d *netlist.Design, shape Shape) Eval {
	floorplan(d, shape)
	place.Global(d, place.Options{
		Iterations: placeIterations,
		Seed:       r.Opt.Seed,
		Workers:    1,
	})
	rres := route.GlobalRoute(d, route.Options{
		Capacity: routeCapacity,
		Workers:  1,
	})
	ev := Eval{Shape: shape, CoreW: d.Core.W(), CoreH: d.Core.H()}
	// HPWL_avg over nets with at least 2 pins; a smaller net adds 0 to the
	// total.
	total := d.HPWL()
	c := d.Compact()
	nets := 0
	for n := range d.Nets {
		if c.NumNetPins(n) >= 2 {
			nets++
		}
	}
	if nets > 0 {
		ev.HPWL = total
		ev.CostHPWL = (total / float64(nets)) / (d.Core.W() + d.Core.H())
	}
	ev.CostCong = rres.Grid.TopPercentAvg(topPercent)
	ev.TotalCost = ev.CostHPWL + delta*ev.CostCong
	return ev
}

// floorplan sizes the design's die/core for the given shape and places the
// ports around the boundary (the stand-in for the OpenROAD pin placer).
func floorplan(d *netlist.Design, shape Shape) {
	area := d.TotalCellArea() / shape.Utilization
	if area <= 0 {
		area = 1
	}
	w := math.Sqrt(area / shape.AspectRatio)
	h := w * shape.AspectRatio
	const margin = 2.0
	d.Core = netlist.Rect{X0: margin, Y0: margin, X1: margin + w, Y1: margin + h}
	d.Die = netlist.Rect{X0: 0, Y0: 0, X1: w + 2*margin, Y1: h + 2*margin}
	n := len(d.Ports)
	if n == 0 {
		return
	}
	perim := 2 * (w + h)
	for i, p := range d.Ports {
		t := perim * float64(i) / float64(n)
		p.X, p.Y = d.Core.PerimeterPoint(t)
		p.Placed = true
	}
}

// InduceSubNetlist extracts the sub-design over the given member instances.
// For every net crossing the cluster boundary, an input port is created when
// the driver is external and sinks are internal, and an output port when the
// driver is internal and sinks are external — exactly the paper's port
// creation rule.
//
// Only nets incident to a member are visited (through the design's compact
// connectivity view), in ascending net ID, so the cost is proportional to the
// cluster and not to the design, and the sub-netlist is the one a scan over
// every net would build.
func InduceSubNetlist(d *netlist.Design, members []int) (*netlist.Design, error) {
	cv := d.Compact()
	sub := netlist.NewBuilder(d.Name+"_cluster", d.Lib)
	newID := make(map[int]int, len(members))
	var incident []int
	for _, id := range members {
		if id < 0 || id >= len(d.Insts) {
			return nil, fmt.Errorf("vpr: member instance ID %d outside design %s (%d instances)", id, d.Name, len(d.Insts))
		}
		inst := d.Insts[id]
		newID[id] = sub.AddInstance(inst.Name, inst.Master).ID
		for _, netID := range cv.InstNets[cv.InstStart[id]:cv.InstStart[id+1]] {
			incident = append(incident, int(netID))
		}
	}
	slices.Sort(incident)
	for _, netID := range slices.Compact(incident) {
		n := d.Nets[netID]
		var internal []netlist.PinRef
		externalDrv := false
		externalSink := false
		internalDrv := false
		var drv netlist.PinRef
		hasDrv := cv.NetDrv[netID] >= 0
		if hasDrv {
			drv = n.Pins[cv.NetDrv[netID]-cv.NetStart[netID]]
		}
		for _, pr := range n.Pins {
			// A port pin's Inst is negative and so never a member.
			if sid, inside := newID[pr.Inst]; inside {
				internal = append(internal, netlist.PinRef{Inst: sid, Pin: pr.Pin}) // same master
				if hasDrv && pr == drv {
					internalDrv = true
				}
			} else {
				if hasDrv && pr == drv {
					externalDrv = true
				} else {
					externalSink = true
				}
			}
		}
		needInPort := externalDrv
		needOutPort := internalDrv && externalSink
		if len(internal) < 2 && !needInPort && !needOutPort {
			continue
		}
		sn := sub.AddNet(n.Name)
		sn.Weight = n.Weight
		sn.Clock = n.Clock
		for _, pr := range internal {
			sub.Connect(sn, pr)
		}
		if needInPort {
			sub.AddPort("vin_"+n.Name, netlist.DirInput)
			sub.Connect(sn, netlist.PinRef{Inst: -1, Pin: len(sub.Ports) - 1})
		}
		if needOutPort {
			sub.AddPort("vout_"+n.Name, netlist.DirOutput)
			sub.Connect(sn, netlist.PinRef{Inst: -1, Pin: len(sub.Ports) - 1})
		}
	}
	return sub.Build()
}

// BestShape runs the full V-P&R sweep over all 20 candidates and returns the
// winner (the first minimum in candidate order) plus all evaluations. Each
// worker evaluates a contiguous block of candidates on one clone of sub.
func BestShape(sub *netlist.Design, runner Runner) (Shape, []Eval) {
	cands := ShapeCandidates()
	evals := make([]Eval, len(cands))
	par.Blocks(par.Workers(runner.Opt.Workers), len(cands), func(w, lo, hi int) {
		d := sub.Clone()
		for i := lo; i < hi; i++ {
			evals[i] = runner.evaluateInPlace(d, cands[i])
		}
	})
	best := cands[0]
	bestCost := math.Inf(1)
	for _, ev := range evals {
		if ev.TotalCost < bestCost {
			bestCost = ev.TotalCost
			best = ev.Shape
		}
	}
	return best, evals
}
