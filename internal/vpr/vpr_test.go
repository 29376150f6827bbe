package vpr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/hier"
	"ppaclust/internal/netlist"
)

func TestShapeCandidates(t *testing.T) {
	cands := ShapeCandidates()
	if len(cands) != 20 {
		t.Fatalf("candidates=%d want 20", len(cands))
	}
	ars := map[float64]bool{}
	utils := map[float64]bool{}
	for _, c := range cands {
		ars[c.AspectRatio] = true
		utils[c.Utilization] = true
		if c.AspectRatio < 0.75 || c.AspectRatio > 1.75 {
			t.Fatalf("AR %v out of paper range", c.AspectRatio)
		}
		if c.Utilization < 0.75 || c.Utilization > 0.90 {
			t.Fatalf("util %v out of paper range", c.Utilization)
		}
	}
	if len(ars) != 5 || len(utils) != 4 {
		t.Fatalf("ARs=%d utils=%d want 5x4", len(ars), len(utils))
	}
}

// clusteredTiny builds a tiny benchmark and returns the members of its
// largest cluster.
func clusteredTiny(t *testing.T, seed int64) (*netlist.Design, []int) {
	t.Helper()
	d := designs.Generate(designs.TinySpec(seed)).Design
	res := cluster.MultilevelFC(d.ToHypergraph().H, cluster.Options{Seed: seed, TargetClusters: 6})
	return d, largestGroup(res.Assign)
}

// scaleModule generates a 10k-cell scale design and returns the members of
// the largest cluster of its hierarchy-based clustering: one ~1.6k-cell
// top-level module, the size the flow hands to V-P&R on that design.
func scaleModule(t testing.TB) (*netlist.Design, []int) {
	t.Helper()
	d := designs.Generate(designs.ScaleSpec(10000, 4243)).Design
	res, ok := hier.Cluster(d, d.ToHypergraph().H)
	if !ok {
		t.Fatal("scale design has no hierarchy")
	}
	return d, largestGroup(res.Assign)
}

// largestGroup returns the members of the most populous group of assign (the
// lowest-numbered one on a tie).
func largestGroup(assign []int) []int {
	sizes := cluster.Sizes(assign, slices.Max(assign)+1)
	best := slices.Index(sizes, slices.Max(sizes))
	var members []int
	for v, c := range assign {
		if c == best {
			members = append(members, v)
		}
	}
	return members
}

func TestInduceSubNetlist(t *testing.T) {
	d, members := clusteredTiny(t, 51)
	sub, err := InduceSubNetlist(d, members)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Insts) != len(members) {
		t.Fatalf("sub insts=%d want %d", len(sub.Insts), len(members))
	}
	if len(sub.Ports) == 0 {
		t.Fatal("expected boundary ports for inter-cluster nets")
	}
	// Port direction sanity: vin ports are inputs, vout outputs.
	for _, p := range sub.Ports {
		if p.Name[:3] == "vin" && p.Dir != netlist.DirInput {
			t.Fatalf("port %s should be input", p.Name)
		}
		if p.Name[:4] == "vout" && p.Dir != netlist.DirOutput {
			t.Fatalf("port %s should be output", p.Name)
		}
	}
	// Every sub net must have >= 2 connections or a port.
	for _, n := range sub.Nets {
		if len(n.Pins) < 2 {
			t.Fatalf("degenerate sub net %s", n.Name)
		}
	}
}

func TestFloorplanShapes(t *testing.T) {
	d, members := clusteredTiny(t, 52)
	sub, _ := InduceSubNetlist(d, members)
	for _, s := range []Shape{{0.75, 0.75}, {1.0, 0.9}, {1.75, 0.8}} {
		c := sub.Clone()
		floorplan(c, s)
		gotAR := c.Core.H() / c.Core.W()
		if math.Abs(gotAR-s.AspectRatio) > 0.01 {
			t.Fatalf("AR=%v want %v", gotAR, s.AspectRatio)
		}
		gotU := c.TotalCellArea() / c.Core.Area()
		if math.Abs(gotU-s.Utilization) > 0.02 {
			t.Fatalf("util=%v want %v", gotU, s.Utilization)
		}
		for _, p := range c.Ports {
			if !p.Placed {
				t.Fatal("port unplaced")
			}
		}
	}
}

func TestEvaluateShapeCosts(t *testing.T) {
	d, members := clusteredTiny(t, 53)
	sub, _ := InduceSubNetlist(d, members)
	r := Runner{Opt: Options{Seed: 1}}
	ev := r.evaluateInPlace(sub.Clone(), Shape{AspectRatio: 1.0, Utilization: 0.8})
	if ev.CostHPWL <= 0 {
		t.Fatalf("CostHPWL=%v", ev.CostHPWL)
	}
	if ev.TotalCost < ev.CostHPWL {
		t.Fatal("total cost must include congestion term")
	}
	if ev.CoreW <= 0 || ev.CoreH <= 0 {
		t.Fatal("core not set")
	}
	// Evaluating a clone must leave the input sub-netlist unplaced.
	for _, inst := range sub.Insts {
		if inst.Placed {
			t.Fatal("evaluating a clone mutated the input design")
		}
	}
}

func TestBestShapeExactRunner(t *testing.T) {
	d, members := clusteredTiny(t, 54)
	sub, _ := InduceSubNetlist(d, members)
	best, evals := BestShape(sub, Runner{Opt: Options{Seed: 2}})
	if len(evals) != 20 {
		t.Fatalf("evals=%d", len(evals))
	}
	for _, ev := range evals {
		if ev.Shape == best {
			continue
		}
		// No other candidate may beat the winner.
		bestCost := math.Inf(1)
		for _, e2 := range evals {
			if e2.Shape == best {
				bestCost = e2.TotalCost
			}
		}
		if ev.TotalCost < bestCost-1e-12 {
			t.Fatalf("shape %+v beats winner", ev.Shape)
		}
	}
}

func TestUniformShapeConstant(t *testing.T) {
	if UniformShape.AspectRatio != 1.0 || UniformShape.Utilization != 0.90 {
		t.Fatalf("uniform shape %+v", UniformShape)
	}
}

func TestInduceEmptyMembers(t *testing.T) {
	d, _ := clusteredTiny(t, 56)
	sub, err := InduceSubNetlist(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Insts) != 0 || len(sub.Nets) != 0 {
		t.Fatal("empty member set should give empty sub-design")
	}
}

// TestInduceMemberOutOfRange: a member ID outside the design is a structured
// error naming the ID, not an index panic.
func TestInduceMemberOutOfRange(t *testing.T) {
	d := designs.Generate(designs.TinySpec(3)).Design
	for _, id := range []int{-1, len(d.Insts)} {
		sub, err := InduceSubNetlist(d, []int{0, id})
		if err == nil || sub != nil {
			t.Fatalf("member %d: got design %v, err %v; want an error", id, sub != nil, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(id)) {
			t.Fatalf("member %d: error %q does not name the ID", id, err)
		}
	}
}

// induceFullScan is the reference for InduceSubNetlist: it walks every net of
// the design and asks Design.Driver for each, which is what InduceSubNetlist
// did before it learned to visit only the members' nets.
func induceFullScan(d *netlist.Design, members []int) (*netlist.Design, error) {
	b := netlist.NewBuilder(d.Name+"_cluster", d.Lib)
	sub := b.Design
	newID := make(map[int]int, len(members))
	for _, id := range members {
		ni := b.AddInstance(d.Insts[id].Name, d.Insts[id].Master)
		newID[id] = ni.ID
	}
	c := d.Compact()
	for _, n := range d.Nets {
		var internal []netlist.PinRef
		var externalDrv, externalSink, internalDrv bool
		var drv netlist.PinRef
		kd := c.NetDrv[n.ID]
		hasDrv := kd >= 0
		if hasDrv {
			drv = n.Pins[kd-c.NetStart[n.ID]]
		}
		for _, pr := range n.Pins {
			if sid, inside := newID[pr.Inst]; !pr.IsPort() && inside {
				internal = append(internal, netlist.PinRef{Inst: sid, Pin: pr.Pin})
				internalDrv = internalDrv || (hasDrv && pr == drv)
			} else if hasDrv && pr == drv {
				externalDrv = true
			} else {
				externalSink = true
			}
		}
		needOutPort := internalDrv && externalSink
		if len(internal) == 0 || (len(internal) < 2 && !externalDrv && !needOutPort) {
			continue
		}
		sn := b.AddNet(n.Name)
		sn.Weight, sn.Clock = n.Weight, n.Clock
		for _, pr := range internal {
			b.Connect(sn, pr)
		}
		if externalDrv {
			b.AddPort("vin_"+n.Name, netlist.DirInput)
			b.Connect(sn, netlist.PinRef{Inst: -1, Pin: len(sub.Ports) - 1})
		}
		if needOutPort {
			b.AddPort("vout_"+n.Name, netlist.DirOutput)
			b.Connect(sn, netlist.PinRef{Inst: -1, Pin: len(sub.Ports) - 1})
		}
	}
	return b.Build()
}

// dumpDesign renders everything InduceSubNetlist decides — instance, net and
// port order, names, masters, weights, pin order — as text.
func dumpDesign(d *netlist.Design) string {
	var sb strings.Builder
	for _, in := range d.Insts {
		fmt.Fprintf(&sb, "I %d %s %s\n", in.ID, in.Name, in.Master.Name)
	}
	for _, p := range d.Ports {
		fmt.Fprintf(&sb, "P %s %v\n", p.Name, p.Dir)
	}
	for _, n := range d.Nets {
		fmt.Fprintf(&sb, "N %d %s w=%v clk=%v", n.ID, n.Name, n.Weight, n.Clock)
		for _, pr := range n.Pins {
			fmt.Fprintf(&sb, " %d/%s", pr.Inst, d.PinName(pr))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestInduceSubNetlistMatchesFullScan: visiting only the members' nets builds
// the same sub-netlist, byte for byte, as scanning the whole design — over
// clusterings of generated designs and over random member sets (unsorted,
// spanning hierarchy, including top-level port nets and clock nets).
func TestInduceSubNetlistMatchesFullScan(t *testing.T) {
	check := func(d *netlist.Design, members []int) {
		t.Helper()
		got, err := InduceSubNetlist(d, members)
		if err != nil {
			t.Fatal(err)
		}
		want, err := induceFullScan(d, members)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := dumpDesign(got), dumpDesign(want); g != w {
			t.Fatalf("%d members: sub-netlist differs from the full scan\n--- incident\n%.2000s\n--- full scan\n%.2000s",
				len(members), g, w)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		spec := designs.TinySpec(seed)
		if seed%2 == 0 {
			spec, _ = designs.Named("aes")
			spec.TargetInsts = 900
			spec.Seed = seed
		}
		d := designs.Generate(spec).Design
		res := cluster.MultilevelFC(d.ToHypergraph().H, cluster.Options{Seed: seed, TargetClusters: 5 + int(seed)})
		members := make([][]int, res.NumClusters)
		for v, c := range res.Assign {
			members[c] = append(members[c], v)
		}
		for _, m := range members {
			check(d, m)
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			k := 1 + rng.Intn(len(d.Insts)/2)
			check(d, rng.Perm(len(d.Insts))[:k])
		}
		all := rng.Perm(len(d.Insts))
		check(d, all)
	}
}

// evalBits flattens every field of an Eval to its bit pattern.
func evalBits(e Eval) [8]uint64 {
	f := [8]float64{e.Shape.AspectRatio, e.Shape.Utilization, e.CostHPWL, e.CostCong,
		e.TotalCost, e.HPWL, e.CoreW, e.CoreH}
	var out [8]uint64
	for i, v := range f {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestBestShapeWorkersEquivalent: the parallel sweep over reused clones gives,
// bit for bit, what evaluating every candidate on a fresh clone in candidate
// order gives — all 20 evaluations and the first-minimum winner — at any
// worker count, and a reused clone carries nothing from one shape to the next
// whatever order the shapes come in.
func TestBestShapeWorkersEquivalent(t *testing.T) {
	t.Run("scale10k", func(t *testing.T) {
		d, members := scaleModule(t)
		if len(members) < 1000 {
			t.Fatalf("cluster has %d cells, want >= 1000", len(members))
		}
		checkSweepEquivalent(t, d, members)
	})
	t.Run("tiny", func(t *testing.T) {
		d, members := clusteredTiny(t, 57)
		checkSweepEquivalent(t, d, members)
	})
}

func checkSweepEquivalent(t *testing.T, d *netlist.Design, members []int) {
	t.Helper()
	sub, err := InduceSubNetlist(d, members)
	if err != nil {
		t.Fatal(err)
	}
	runner := Runner{Opt: Options{Seed: 3}}
	cands := ShapeCandidates()
	want := make([]Eval, len(cands))
	wantBest, bestCost := cands[0], math.Inf(1)
	for i, s := range cands {
		want[i] = runner.evaluateInPlace(sub.Clone(), s)
		if want[i].TotalCost < bestCost {
			wantBest, bestCost = s, want[i].TotalCost
		}
	}
	check := func(label string, got []Eval) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d evals, want %d", label, len(got), len(want))
		}
		for i := range want {
			if evalBits(got[i]) != evalBits(want[i]) {
				t.Errorf("%s: eval %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}
	for _, w := range []int{1, 2, 8} {
		r := runner
		r.Opt.Workers = w
		best, evals := BestShape(sub, r)
		check(fmt.Sprintf("Workers=%d", w), evals)
		if best != wantBest {
			t.Errorf("Workers=%d: winner %+v, want %+v", w, best, wantBest)
		}
	}
	reused := sub.Clone()
	rev := make([]Eval, len(cands))
	for i := len(cands) - 1; i >= 0; i-- {
		rev[i] = runner.evaluateInPlace(reused, cands[i])
	}
	check("one clone, reverse order", rev)
	for _, inst := range sub.Insts {
		if inst.Placed {
			t.Fatal("the sweep mutated the input design")
		}
	}
}

// BenchmarkBestShape times one 20-shape sweep on a ~1.5k-cell cluster, the
// unit of work of the vpr10k benchmark workload.
func BenchmarkBestShape(b *testing.B) {
	d, members := scaleModule(b)
	sub, err := InduceSubNetlist(d, members)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BestShape(sub, Runner{Opt: Options{Seed: 1}})
	}
}
