package designs

import (
	"math"
	"math/rand"

	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/sta"
)

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	Name        string
	TargetInsts int     // approximate instance count
	Depth       int     // logical hierarchy depth (>=1)
	Branch      int     // children per hierarchy node
	SeqRatio    float64 // fraction of leaf cells that are registers
	CrossFrac   float64 // fraction of sinks wired across leaf modules
	SiblingBias float64 // of cross wires, fraction kept under the same parent
	// BroadcastFrac is the fraction of gate inputs tied to global control
	// signals (enables/selects): high-fanout, design-wide nets that mislead
	// connectivity-only clustering but are not timing-critical. Default 0.03.
	BroadcastFrac float64
	IOs           int     // primary data IO count (split between in/out)
	Macros        int     // preplaced RAM macros
	ClockPeriod   float64 // target clock period (s)
	Utilization   float64 // floorplan utilization target
	LogicDepth    int     // max combinational depth between registers (default 16)
	Seed          int64
}

// Benchmark bundles a generated design with its timing constraints.
type Benchmark struct {
	Design *netlist.Design
	Cons   sta.Constraints
	Spec   Spec
}

// specs are the six paper benchmarks, scaled ~40-100x down with ordering and
// relative character preserved (aes: small flat crypto core; MemPool Group:
// huge, deeply hierarchical, many macros). Clock periods follow Table 1's
// TCP_OR column (in ns there; here the generator's gate depth is tuned so
// those periods yield mildly violating paths, as in the paper's Tables 3-4).
var specs = []Spec{
	{Name: "aes", TargetInsts: 1500, Depth: 2, Branch: 4, SeqRatio: 0.18, CrossFrac: 0.10, SiblingBias: 0.7, IOs: 64, Macros: 0, ClockPeriod: 0.55e-9, Utilization: 0.55, LogicDepth: 10, Seed: 1001},
	{Name: "jpeg", TargetInsts: 3200, Depth: 2, Branch: 5, SeqRatio: 0.16, CrossFrac: 0.08, SiblingBias: 0.7, IOs: 48, Macros: 0, ClockPeriod: 0.80e-9, Utilization: 0.55, LogicDepth: 14, Seed: 1002},
	{Name: "ariane", TargetInsts: 6500, Depth: 3, Branch: 4, SeqRatio: 0.20, CrossFrac: 0.09, SiblingBias: 0.75, IOs: 96, Macros: 4, ClockPeriod: 1.05e-9, Utilization: 0.52, LogicDepth: 18, Seed: 1003},
	{Name: "bp", TargetInsts: 13000, Depth: 3, Branch: 5, SeqRatio: 0.22, CrossFrac: 0.08, SiblingBias: 0.8, IOs: 128, Macros: 8, ClockPeriod: 1.25e-9, Utilization: 0.50, LogicDepth: 20, Seed: 1004},
	{Name: "mb", TargetInsts: 19000, Depth: 4, Branch: 4, SeqRatio: 0.22, CrossFrac: 0.07, SiblingBias: 0.8, IOs: 128, Macros: 12, ClockPeriod: 1.35e-9, Utilization: 0.50, LogicDepth: 22, Seed: 1005},
	{Name: "mpg", TargetInsts: 27000, Depth: 4, Branch: 5, SeqRatio: 0.24, CrossFrac: 0.06, SiblingBias: 0.85, IOs: 160, Macros: 16, ClockPeriod: 1.50e-9, Utilization: 0.48, LogicDepth: 24, Seed: 1006},
}

// PaperNames maps our short names to the paper's design names.
var PaperNames = map[string]string{
	"aes": "aes", "jpeg": "jpeg", "ariane": "ariane",
	"bp": "BlackParrot", "mb": "MegaBoom", "mpg": "MemPool Group",
}

// Named returns the spec for one of the six benchmark names.
func Named(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// TinySpec returns a fast, small spec for unit/integration tests.
func TinySpec(seed int64) Spec {
	return Spec{
		Name: "tiny", TargetInsts: 320, Depth: 2, Branch: 3, SeqRatio: 0.2,
		CrossFrac: 0.1, SiblingBias: 0.7, IOs: 16, Macros: 0,
		ClockPeriod: 0.6e-9, Utilization: 0.5, LogicDepth: 10, Seed: seed,
	}
}

// driver is an available signal source during generation. Combinational
// depths live in the record pass (leafRecorder.depths); by materialization
// time only the pin reference and the lazily created net matter.
type driver struct {
	ref  netlist.PinRef
	net  *netlist.Net // nil until first sink connects
	leaf int          // producing leaf module index, -1 for primary inputs
}

type generator struct {
	rng     *rand.Rand
	workers int
	d       *netlist.Design
	lib     *netlist.Library
	spec    Spec
	gates   []*netlist.Master // comb masters, sampled by weight; resolved once
	dff     *netlist.Master
	ram     *netlist.Master

	clockNet  *netlist.Net
	netCount  int
	instCount int

	// exported drivers per leaf, available to later leaves for cross wiring
	exports    [][]driver
	expCount   int // exports per leaf, fixed a priori (every leaf is perLeaf cells)
	leafParent []int
	broadcast  []driver // global control signals (register outputs)
}

// Generate builds the benchmark for a spec with the automatic worker count.
// The same spec always yields the identical design (deterministic RNG; no
// map iteration in generation); every call generates afresh, so a caller
// that needs one design twice keeps it.
func Generate(spec Spec) *Benchmark {
	return generate(spec, 0)
}

// GenerateWorkers builds the benchmark with an explicit worker count. The
// result is bit-identical at every worker count (leaf records come from
// per-leaf RNG streams, and materialization is a fixed serial order — gated
// by TestGenerateWorkersEquivalent).
func GenerateWorkers(spec Spec, workers int) *Benchmark {
	return generate(spec, workers)
}

func generate(spec Spec, workers int) *Benchmark {
	g := &generator{
		rng:     rand.New(rand.NewSource(spec.Seed)),
		workers: par.Workers(workers),
		lib:     Lib(),
		spec:    spec,
	}
	// Pre-size the design for the requested cell count: instances get the
	// target plus control registers and macros, nets track instances nearly
	// one-to-one (every driver pin opens at most one net).
	instCap := spec.TargetInsts + spec.TargetInsts/16 + spec.Macros + 64
	g.d = netlist.NewDesignSized(spec.Name, g.lib, instCap, instCap+spec.IOs+8)
	// Resolve masters once instead of a name-map lookup per instance.
	for _, name := range []string{
		"INV_X1", "INV_X1", "INV_X2", "BUF_X1",
		"NAND2_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "OR2_X1",
		"XOR2_X1", "AOI21_X1", "MUX2_X1",
	} {
		g.gates = append(g.gates, g.lib.Master(name))
	}
	g.dff = g.lib.Master("DFF_X1")
	g.ram = g.lib.Master("RAM32X32")
	if g.spec.LogicDepth <= 0 {
		g.spec.LogicDepth = 16
	}
	if g.spec.BroadcastFrac == 0 {
		g.spec.BroadcastFrac = 0.03
	}
	g.build()
	cons := sta.DefaultConstraints(spec.ClockPeriod)
	cons.ClockPorts = []string{"clk"}
	return &Benchmark{Design: g.d, Cons: cons, Spec: spec}
}

// must asserts a generator invariant: every AddNet/AddInstance/AddPort name
// derives from a monotone counter, so duplicate-name errors cannot occur on
// any input. A failure here is a bug in the generator itself, which no
// caller could meaningfully handle.
func must(err error) {
	if err != nil {
		panic(err) //ppalint:ignore nopanic invariant assertion: counter-derived names are unique by construction, failure is a generator bug
	}
}

func (g *generator) newNetFor(drv *driver) *netlist.Net {
	if drv.net != nil {
		return drv.net
	}
	n, err := g.d.AddNet("n" + itoa(g.netCount))
	must(err)
	g.netCount++
	g.d.Connect(n, drv.ref)
	drv.net = n
	return n
}

func (g *generator) addInst(path string, master *netlist.Master) *netlist.Instance {
	inst, err := g.d.AddInstance(path+"/g"+itoa(g.instCount), master)
	must(err)
	g.instCount++
	return inst
}

// leafPaths enumerates the hierarchy tree's leaf module paths.
func (g *generator) leafPaths() []string {
	var out []string
	g.leafParent = nil
	parentOf := map[string]int{}
	var rec func(prefix string, depth, parentIdx int)
	rec = func(prefix string, depth, parentIdx int) {
		if depth == g.spec.Depth {
			out = append(out, prefix)
			g.leafParent = append(g.leafParent, parentIdx)
			return
		}
		idx := len(parentOf)
		parentOf[prefix] = idx
		for c := 0; c < g.spec.Branch; c++ {
			rec(prefix+"/m"+itoa(c), depth+1, idx)
		}
	}
	rec("top", 0, -1)
	return out
}

func (g *generator) build() {
	d := g.d
	spec := g.spec

	// Clock port and net.
	clk, _ := d.AddPort("clk", netlist.DirInput)
	g.clockNet, _ = d.AddNet("clk")
	g.clockNet.Clock = true
	d.Connect(g.clockNet, netlist.PinRef{Inst: -1, Pin: "clk"})
	_ = clk

	// Primary inputs.
	nIn := spec.IOs / 2
	if nIn < 4 {
		nIn = 4
	}
	primary := make([]driver, 0, nIn)
	for i := 0; i < nIn; i++ {
		name := "in" + itoa(i)
		_, err := d.AddPort(name, netlist.DirInput)
		must(err)
		primary = append(primary, driver{ref: netlist.PinRef{Inst: -1, Pin: name}, leaf: -1})
	}

	// Global control registers: their outputs broadcast across the design.
	nCtrl := 3 + spec.TargetInsts/2500
	for i := 0; i < nCtrl; i++ {
		ff := g.addInst("top/ctrl", g.dff)
		d.Connect(g.clockNet, netlist.PinRef{Inst: ff.ID, Pin: "CK"})
		// Control registers resample a primary input: a one-hop, timing-
		// harmless path.
		drv := &primary[g.rng.Intn(len(primary))]
		n := g.newNetFor(drv)
		d.Connect(n, netlist.PinRef{Inst: ff.ID, Pin: "D"})
		g.broadcast = append(g.broadcast, driver{ref: netlist.PinRef{Inst: ff.ID, Pin: "Q"}, leaf: -1})
	}

	leaves := g.leafPaths()
	perLeaf := spec.TargetInsts / len(leaves)
	if perLeaf < 12 {
		perLeaf = 12
	}
	// Every leaf is exactly perLeaf cells, so its export count is known
	// before any leaf is built — cross-module picks in the record phase can
	// index another leaf's exports without waiting for them to materialize.
	g.expCount = perLeaf / 8
	if g.expCount < 4 {
		g.expCount = 4
	}
	g.exports = make([][]driver, len(leaves))

	// Phase B: record every leaf's synthesis decisions in parallel. Each
	// leaf draws from its own seeded RNG stream and consults only a-priori
	// facts about the others (parent indices, the fixed export count), so
	// the records are identical at every worker count.
	plans := make([]leafPlan, len(leaves))
	par.ForEach(g.workers, len(leaves), func(li int) {
		g.recordLeaf(li, perLeaf, len(primary), &plans[li])
	})

	// Phase C: materialize the records serially in leaf order — instance,
	// net, and name counters advance in one fixed sequence regardless of
	// how the records were produced.
	for li, path := range leaves {
		g.materializeLeaf(li, path, &plans[li], primary)
	}

	// Macros: attach each to a leaf's exported signals.
	for mi := 0; mi < spec.Macros; mi++ {
		li := g.rng.Intn(len(leaves))
		g.addMacro(mi, li, leaves[li])
	}

	// Primary outputs: tap exported drivers from random leaves.
	nOut := spec.IOs - nIn
	if nOut < 4 {
		nOut = 4
	}
	for i := 0; i < nOut; i++ {
		name := "out" + itoa(i)
		_, err := d.AddPort(name, netlist.DirOutput)
		must(err)
		li := g.rng.Intn(len(g.exports))
		if len(g.exports[li]) == 0 {
			continue
		}
		drv := &g.exports[li][g.rng.Intn(len(g.exports[li]))]
		n := g.newNetFor(drv)
		d.Connect(n, netlist.PinRef{Inst: -1, Pin: name})
	}

	g.floorplan()
}

// driverRef names a signal source chosen during the leaf record pass,
// before any instance or net exists.
type driverRef struct {
	kind int8  // refBroadcast, refCross, refPrimary, refLocal
	a    int32 // broadcast/primary/local index, or the source leaf for refCross
	b    int32 // export index within the source leaf (refCross only)
}

const (
	refBroadcast = int8(iota)
	refCross
	refPrimary
	refLocal
)

// leafPlan is one leaf module's recorded synthesis: which comb masters to
// instantiate, where every input pin connects, how register D inputs close,
// and which local drivers the leaf exports. Records reference other leaves
// only as (leaf, export-slot) pairs, so they can be produced in parallel.
type leafPlan struct {
	gates  []int32     // comb cell master index into generator.gates
	picks  []driverRef // input pin sources, in gate-then-pin order
	dClose []int32     // local driver index closing each register D input
	exps   []int32     // local driver indices exported for cross wiring
}

// leafRecorder holds the leaf-local state the driver-selection distribution
// needs: the per-driver combinational depths and a sibling-candidate scratch.
type leafRecorder struct {
	g      *generator
	rng    *rand.Rand
	li     int
	nPrim  int
	nBcast int
	depths []int32 // local driver depths; registers occupy the front at 0
	cand   []int32
}

// pick selects a signal source for one sink, honoring the broadcast
// fraction, the cross-module fraction, and the sibling bias — the same
// distribution the serial generator used, restated over record indices.
// Cross-module drivers are assumed to sit at the depth cap, so a crossing
// immediately stops local chain extension; that bounds register-to-register
// depth without needing the source leaf's actual depths, which is what lets
// every leaf record independently.
func (lr *leafRecorder) pick() driverRef {
	g := lr.g
	r := lr.rng.Float64()
	// Global control broadcast (enable/select fanout).
	if r < g.spec.BroadcastFrac && lr.nBcast > 0 {
		return driverRef{kind: refBroadcast, a: int32(lr.rng.Intn(lr.nBcast))}
	}
	r = lr.rng.Float64()
	// Cross-module selection from earlier leaves (every leaf exports
	// expCount drivers, so earlier leaves are always valid candidates).
	if r < g.spec.CrossFrac && lr.li > 0 {
		candidates := lr.cand[:0]
		if lr.rng.Float64() < g.spec.SiblingBias {
			for lj := 0; lj < lr.li; lj++ {
				if g.leafParent[lj] == g.leafParent[lr.li] {
					candidates = append(candidates, int32(lj))
				}
			}
		}
		if len(candidates) == 0 {
			for lj := 0; lj < lr.li; lj++ {
				candidates = append(candidates, int32(lj))
			}
		}
		lr.cand = candidates[:0]
		lj := candidates[lr.rng.Intn(len(candidates))]
		return driverRef{kind: refCross, a: lj, b: int32(lr.rng.Intn(g.expCount))}
	}
	if len(lr.depths) == 0 || lr.rng.Float64() < 0.04 {
		return driverRef{kind: refPrimary, a: int32(lr.rng.Intn(lr.nPrim))}
	}
	// Locality: geometric bias toward recent drivers; the depth cap bounds
	// register-to-register combinational depth so the design's critical
	// paths track the spec's target clock period.
	for try := 0; try < 4; try++ {
		idx := len(lr.depths) - 1 - geometric(lr.rng, 0.25, len(lr.depths))
		if int(lr.depths[idx]) < g.spec.LogicDepth {
			return driverRef{kind: refLocal, a: int32(idx)}
		}
	}
	// Fall back to a shallow driver (register outputs live at the front).
	lo := lr.rng.Intn(len(lr.depths)/4 + 1)
	return driverRef{kind: refLocal, a: int32(lo)}
}

func geometric(rng *rand.Rand, p float64, bound int) int {
	k := 0
	for rng.Float64() > p && k < bound-1 {
		k++
	}
	return k
}

// recordLeaf plays out one leaf module's synthesis against leaf-local state
// only: registers seed the depth array, a combinational cloud consumes and
// extends it, register D closes and exports sample the finished driver set.
// The RNG stream is private to the leaf (seeded from spec.Seed and li), so
// any number of leaves can record concurrently.
func (g *generator) recordLeaf(li, nCells, nPrim int, plan *leafPlan) {
	nReg := int(float64(nCells) * g.spec.SeqRatio)
	if nReg < 2 {
		nReg = 2
	}
	nComb := nCells - nReg

	lr := leafRecorder{
		g:      g,
		rng:    rand.New(rand.NewSource(leafSeed(g.spec.Seed, li))),
		li:     li,
		nPrim:  nPrim,
		nBcast: len(g.broadcast),
		depths: make([]int32, nReg, nReg+nComb), // registers start at depth 0
	}
	plan.gates = make([]int32, 0, nComb)
	plan.picks = make([]driverRef, 0, 2*nComb)
	for i := 0; i < nComb; i++ {
		gi := lr.rng.Intn(len(g.gates))
		plan.gates = append(plan.gates, int32(gi))
		m := g.gates[gi]
		maxDepth := int32(0)
		for pi := range m.Pins {
			if m.Pins[pi].Dir != netlist.DirInput {
				continue
			}
			ref := lr.pick()
			plan.picks = append(plan.picks, ref)
			var dep int32
			switch ref.kind {
			case refLocal:
				dep = lr.depths[ref.a]
			case refCross:
				dep = int32(g.spec.LogicDepth - 1)
			}
			if dep > maxDepth {
				maxDepth = dep
			}
		}
		lr.depths = append(lr.depths, maxDepth+1)
	}
	// Close register D inputs from late drivers (deep paths).
	nLocal := len(lr.depths)
	lo := nLocal * 3 / 4
	plan.dClose = make([]int32, 0, nReg)
	for i := 0; i < nReg; i++ {
		plan.dClose = append(plan.dClose, int32(lo+lr.rng.Intn(nLocal-lo)))
	}
	// Export a sample of drivers for cross-module wiring.
	plan.exps = make([]int32, 0, g.expCount)
	for i := 0; i < g.expCount; i++ {
		plan.exps = append(plan.exps, int32(lr.rng.Intn(nLocal)))
	}
}

// leafSeed derives leaf li's private RNG stream from the spec seed using a
// splitmix64-style finalizer, so nearby (seed, li) pairs land on unrelated
// streams.
func leafSeed(seed int64, li int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(li+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// materializeLeaf turns one leaf's record into instances, nets, and
// connections. It must run in leaf order on one goroutine: the design's
// instance and net counters, and the lazily created nets shared through
// broadcast/export/primary driver structs, all advance in record order.
func (g *generator) materializeLeaf(li int, path string, plan *leafPlan, primary []driver) {
	d := g.d
	nReg := len(plan.dClose)
	local := make([]driver, 0, nReg+len(plan.gates))
	regs := make([]*netlist.Instance, 0, nReg)
	for i := 0; i < nReg; i++ {
		ff := g.addInst(path, g.dff)
		regs = append(regs, ff)
		d.Connect(g.clockNet, netlist.PinRef{Inst: ff.ID, Pin: "CK"})
		local = append(local, driver{ref: netlist.PinRef{Inst: ff.ID, Pin: "Q"}, leaf: li})
	}
	pk := 0
	for _, gi := range plan.gates {
		m := g.gates[gi]
		inst := g.addInst(path, m)
		for pi := range m.Pins {
			mp := &m.Pins[pi]
			if mp.Dir != netlist.DirInput {
				continue
			}
			ref := plan.picks[pk]
			pk++
			var drv *driver
			switch ref.kind {
			case refBroadcast:
				drv = &g.broadcast[ref.a]
			case refCross:
				drv = &g.exports[ref.a][ref.b]
			case refPrimary:
				drv = &primary[ref.a]
			default:
				drv = &local[ref.a]
			}
			n := g.newNetFor(drv)
			d.Connect(n, netlist.PinRef{Inst: inst.ID, Pin: mp.Name})
		}
		local = append(local, driver{ref: netlist.PinRef{Inst: inst.ID, Pin: "ZN"}, leaf: li})
	}
	for i, ff := range regs {
		drv := &local[plan.dClose[i]]
		n := g.newNetFor(drv)
		d.Connect(n, netlist.PinRef{Inst: ff.ID, Pin: "D"})
	}
	for _, idx := range plan.exps {
		g.exports[li] = append(g.exports[li], local[idx])
	}
}

// addMacro instantiates a RAM connected to leaf li's exports.
func (g *generator) addMacro(mi, li int, path string) {
	d := g.d
	ram, err := d.AddInstance(path+"/ram"+itoa(mi), g.ram)
	must(err)
	d.Connect(g.clockNet, netlist.PinRef{Inst: ram.ID, Pin: "CK"})
	exp := g.exports[li]
	for i := 0; i < 8 && len(exp) > 0; i++ {
		drv := &exp[g.rng.Intn(len(exp))]
		n := g.newNetFor(drv)
		d.Connect(n, netlist.PinRef{Inst: ram.ID, Pin: "A" + itoa(i)})
	}
	// RAM outputs become new exported drivers.
	for i := 0; i < 8; i++ {
		g.exports[li] = append(g.exports[li],
			driver{ref: netlist.PinRef{Inst: ram.ID, Pin: "Q" + itoa(i)}, leaf: li})
	}
}

// floorplan sizes the die/core from total area and utilization, places ports
// on the core boundary and preplaces macros along the left edge.
func (g *generator) floorplan() {
	d := g.d
	area := d.TotalCellArea() / g.spec.Utilization
	side := math.Sqrt(area)
	// Snap to row grid.
	rows := math.Ceil(side/RowHeight) + 1
	side = rows * RowHeight
	const margin = 10.0
	d.Core = netlist.Rect{X0: margin, Y0: margin, X1: margin + side, Y1: margin + side}
	d.Die = netlist.Rect{X0: 0, Y0: 0, X1: side + 2*margin, Y1: side + 2*margin}
	d.RowHeight = RowHeight
	d.SiteWidth = SiteWidth

	// Ports around the core boundary, evenly spaced.
	n := len(d.Ports)
	perim := 4 * side
	for i, p := range d.Ports {
		t := perim * float64(i) / float64(n)
		x, y := pointOnPerimeter(d.Core, t)
		p.X, p.Y, p.Placed = x, y, true
	}
	// Macros along the left and right edges, fixed.
	mi := 0
	for _, inst := range d.Insts {
		if inst.Master.Class != netlist.ClassMacro {
			continue
		}
		col := mi % 2
		row := mi / 2
		if col == 0 {
			inst.X = d.Core.X0 + 1
		} else {
			inst.X = d.Core.X1 - inst.Master.Width - 1
		}
		inst.Y = d.Core.Y0 + 1 + float64(row)*(inst.Master.Height+2)
		if inst.Y+inst.Master.Height > d.Core.Y1 {
			inst.Y = d.Core.Y1 - inst.Master.Height - 1
		}
		inst.Placed = true
		inst.Fixed = true
		mi++
	}
}

func pointOnPerimeter(r netlist.Rect, t float64) (float64, float64) {
	w, h := r.W(), r.H()
	switch {
	case t < w:
		return r.X0 + t, r.Y0
	case t < w+h:
		return r.X1, r.Y0 + (t - w)
	case t < 2*w+h:
		return r.X1 - (t - w - h), r.Y1
	default:
		return r.X0, r.Y1 - (t - 2*w - h)
	}
}

// ScaleSpec returns a synthetic benchmark spec sized for scale testing: the
// hierarchy deepens with the cell count so leaves stay a few hundred cells,
// and the macro/IO budget grows in proportion. The same (cells, seed) pair
// always yields the identical design. This is the spec the benchmark's scale
// workloads and `ppa bench -timing-driven <sizes>` run on.
func ScaleSpec(cells int, seed int64) Spec {
	branch, depth := 6, 2
	switch {
	case cells > 300000:
		branch, depth = 8, 4
	case cells > 30000:
		branch, depth = 6, 3
	}
	return Spec{
		Name:        "scale" + itoa(cells),
		TargetInsts: cells,
		Depth:       depth,
		Branch:      branch,
		SeqRatio:    0.2,
		CrossFrac:   0.08,
		SiblingBias: 0.8,
		IOs:         192,
		Macros:      cells / 12500,
		ClockPeriod: 1.2e-9,
		Utilization: 0.5,
		LogicDepth:  20,
		Seed:        seed,
	}
}
