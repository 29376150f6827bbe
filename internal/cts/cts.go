// Package cts synthesizes a clock tree over the clock sinks of a placed
// design, the reproduction's stand-in for TritonCTS / Innovus CCOpt. It
// builds a balanced binary tree by recursive geometric bisection, sizes the
// levels with a library clock buffer, and reports per-sink insertion delays
// (fed to the STA as propagated clock arrivals), skew, buffer count and
// clock wirelength. The host netlist is not mutated; the tree is virtual,
// which is sufficient for post-route WNS/TNS/power evaluation.
//
// The sink set is collected through the netlist.Compact CSR view and stored
// as flat arrays; the bisection runs over two coordinate orderings presorted
// once with the shared radix sort and split by stable partition at each
// level — O(n log n) total with no per-level sorting or copying, which is
// what makes million-sink clock nets tractable. Fully deterministic: every
// ordering is a strict (coordinate, sink-index) total order.
package cts

import (
	"math"

	"ppaclust/internal/netlist"
	"ppaclust/internal/sortx"
	"ppaclust/internal/sta"
)

// Options configures clock tree synthesis.
type Options struct {
	// BufMaster is the clock buffer cell. Required.
	BufMaster *netlist.Master
	// SkipArrivalMap is ignored; kept for frozen benchmark/replay.go.
	// Insertion delays are reported through Result.ArrivalList only.
	SkipArrivalMap bool
	// Workers is ignored; kept for frozen benchmark/replay.go.
	Workers int
}

const (
	// inputSlew is the slew assumed at each buffer input.
	inputSlew = 20e-12
	// maxFanout is the most sinks one leaf buffer drives.
	maxFanout = 16
)

// Result reports the synthesized clock tree.
type Result struct {
	// ArrivalList holds each clock sink pin's insertion delay (leaf
	// traversal order), ready for sta.SetClockArrivalList.
	ArrivalList []sta.ClockArrival
	// Buffers is the number of (virtual) clock buffers inserted.
	Buffers int
	// WirelengthUM is the total clock-tree wirelength.
	WirelengthUM float64
	// MaxInsertion and MinInsertion bound the sink insertion delays.
	MaxInsertion float64
	MinInsertion float64
	// Levels is the tree depth (buffer levels).
	Levels int
	// Power is the estimated clock-tree dynamic power adder (W) at the
	// analyzer's clock frequency, filled by EstimatePower.
	Power float64
}

// Skew returns max - min insertion delay.
func (r *Result) Skew() float64 { return r.MaxInsertion - r.MinInsertion }

// builder holds the flat sink arrays and the bisection scratch.
type builder struct {
	// Sink SoA, in clock-net pin order.
	x, y, cap []float64
	inst      []int32
	mp        []int32 // master-pin index

	sideLo []bool // membership marks for the stable partitions
}

type node struct {
	x, y     float64
	children []*node
	sinks    []int32 // leaf nodes: sink indices
	loadCap  float64
	wireLen  float64 // wire from this node to children/sinks
}

// annotateForkDepth is the tree depth at which annotation switches from
// adding each node's wire straight into the wirelength total to summing a
// subtree into a partial that is added afterwards. It fixes the floating-
// point accumulation order of Result.WirelengthUM (top nodes in DFS order,
// then subtree partials in DFS order), which TestSynthesizeGolden pins.
const annotateForkDepth = 3

// Synthesize builds the clock tree for the given clock net.
func Synthesize(d *netlist.Design, clockNet *netlist.Net, opt Options) *Result {
	var b builder
	rootX, rootY, haveRoot := b.gatherSinks(d, clockNet.ID)
	res := &Result{}
	if len(b.x) == 0 {
		return res
	}
	if !haveRoot {
		rootX, rootY = centroid(&b, nil)
	}

	// Presort both coordinate orders once; the recursion splits them with
	// stable partitions instead of re-sorting every level.
	n := len(b.x)
	byX := make([]int32, n)
	byY := make([]int32, n)
	var sorter sortx.Sorter
	sorter.IndexByFloat64(byX, b.x)
	sorter.IndexByFloat64(byY, b.y)
	b.sideLo = make([]bool, n)
	buf := make([]int32, n)

	tree := b.build(byX, byY, buf)
	res.Levels = depth(tree)

	// Root wire from the clock source to the tree root.
	rootWire := math.Abs(tree.x-rootX) + math.Abs(tree.y-rootY)
	res.WirelengthUM += rootWire
	b.annotate(tree, opt, res, wireDelay(rootWire, bufInCap(opt)))
	return res
}

// gatherSinks fills b's sink arrays with the input instance pins of clock
// net ni, in pin order, at their positions by the compact view. It returns
// the clock source: the last input port in pin order, if the net has one.
func (b *builder) gatherSinks(d *netlist.Design, ni int) (rootX, rootY float64, haveRoot bool) {
	c := d.Compact()
	var pos netlist.Positions
	pos.Gather(d)
	s0, s1 := c.NetStart[ni], c.NetStart[ni+1]
	nPins := int(s1 - s0)
	b.x = make([]float64, 0, nPins)
	b.y = make([]float64, 0, nPins)
	b.cap = make([]float64, 0, nPins)
	b.inst = make([]int32, 0, nPins)
	b.mp = make([]int32, 0, nPins)
	for k := s0; k < s1; k++ {
		id := c.PinInst[k]
		if id < 0 {
			if d.Ports[-1-id].Dir == netlist.DirInput {
				rootX, rootY = c.PinXY(&pos, k)
				haveRoot = true
			}
			continue
		}
		mpIdx := c.PinMP[k]
		mp := &d.Insts[id].Master.Pins[mpIdx]
		if mp.Dir != netlist.DirInput {
			continue
		}
		x, y := c.PinXY(&pos, k)
		b.x = append(b.x, x)
		b.y = append(b.y, y)
		b.cap = append(b.cap, mp.Cap)
		b.inst = append(b.inst, id)
		b.mp = append(b.mp, mpIdx)
	}
	return rootX, rootY, haveRoot
}

// centroid averages sink positions; idx == nil means all sinks.
func centroid(b *builder, idx []int32) (float64, float64) {
	var sx, sy float64
	if idx == nil {
		for i := range b.x {
			sx += b.x[i]
			sy += b.y[i]
		}
		n := float64(len(b.x))
		return sx / n, sy / n
	}
	for _, i := range idx {
		sx += b.x[i]
		sy += b.y[i]
	}
	n := float64(len(idx))
	return sx / n, sy / n
}

// build recursively bisects the sink set along its wider spread dimension.
// bx and by hold the same sink set sorted by x and by y (ties by index); at
// each level the chosen axis order is cut at its midpoint and the other
// order is split by a stable partition on membership, so both children
// inherit both orderings without sorting or extra allocation.
func (b *builder) build(bx, by, buf []int32) *node {
	n := len(bx)
	cx, cy := centroid(b, bx)
	nd := &node{x: cx, y: cy}
	if n <= maxFanout {
		nd.sinks = bx
		return nd
	}
	// Spread per axis from the sorted extremes.
	spreadX := b.x[bx[n-1]] - b.x[bx[0]]
	spreadY := b.y[by[n-1]] - b.y[by[0]]
	actIsX := spreadX >= spreadY
	act, oth := bx, by
	if !actIsX {
		act, oth = by, bx
	}
	mid := n / 2
	for _, v := range act[:mid] {
		b.sideLo[v] = true
	}
	lo, hi := buf[:0], buf[mid:mid]
	for _, v := range oth {
		if b.sideLo[v] {
			lo = append(lo, v)
		} else {
			hi = append(hi, v)
		}
	}
	copy(oth, buf[:n])
	for _, v := range act[:mid] {
		b.sideLo[v] = false
	}
	actLo, actHi := act[:mid], act[mid:]
	othLo, othHi := oth[:mid], oth[mid:]
	bufLo, bufHi := buf[:mid], buf[mid:]
	loBx, loBy, hiBx, hiBy := actLo, othLo, actHi, othHi
	if !actIsX {
		loBx, loBy, hiBx, hiBy = othLo, actLo, othHi, actHi
	}
	cLo := b.build(loBx, loBy, bufLo)
	cHi := b.build(hiBx, hiBy, bufHi)
	nd.children = []*node{cLo, cHi}
	return nd
}

func depth(n *node) int {
	if len(n.children) == 0 {
		return 1
	}
	d := 0
	for _, c := range n.children {
		if cd := depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// bufInCap returns the input load a tree node presents to its parent: the
// buffer input cap (every internal and leaf node hosts a buffer).
func bufInCap(opt Options) float64 {
	for pi := range opt.BufMaster.Pins {
		mp := &opt.BufMaster.Pins[pi]
		if mp.Dir == netlist.DirInput {
			return mp.Cap
		}
	}
	return 1e-15
}

func wireDelay(length, loadCap float64) float64 {
	return sta.WireResPerMicron * length * (sta.WireCapPerMicron*length/2 + loadCap)
}

// annotate walks the tree computing insertion delays. The top
// annotateForkDepth levels add their wires to the wirelength total as they
// are met; each subtree below is summed on its own and added afterwards, in
// DFS order.
func (b *builder) annotate(root *node, opt Options, res *Result, at0 float64) {
	type subtree struct {
		n  *node
		at float64
	}
	var subs []subtree
	var descend func(n *node, at float64, depth int)
	descend = func(n *node, at float64, depth int) {
		if depth == annotateForkDepth || len(n.children) == 0 {
			subs = append(subs, subtree{n, at})
			return
		}
		res.Buffers++
		var load, wl float64
		for _, c := range n.children {
			l := math.Abs(c.x-n.x) + math.Abs(c.y-n.y)
			wl += l
			load += sta.WireCapPerMicron*l + bufInCap(opt)
		}
		n.loadCap = load
		n.wireLen = wl
		res.WirelengthUM += wl
		out := at + bufferDelay(opt, load)
		for _, c := range n.children {
			l := math.Abs(c.x-n.x) + math.Abs(c.y-n.y)
			descend(c, out+wireDelay(l, bufInCap(opt)), depth+1)
		}
	}
	descend(root, at0, 0)

	res.ArrivalList = make([]sta.ClockArrival, 0, len(b.x))
	res.MinInsertion = math.Inf(1)
	for _, s := range subs {
		var wl float64
		b.annotateSub(s.n, opt, res, &wl, s.at)
		res.WirelengthUM += wl
	}
}

// annotateSub walks one subtree: per-node loads and wires, the wires summed
// into wlSum, and per-sink insertion delays appended to res in leaf order.
func (b *builder) annotateSub(n *node, opt Options, res *Result, wlSum *float64, at float64) {
	res.Buffers++
	// Load seen by this node's buffer: wires + child buffer inputs or sinks.
	var load, wl float64
	if len(n.children) > 0 {
		for _, c := range n.children {
			l := math.Abs(c.x-n.x) + math.Abs(c.y-n.y)
			wl += l
			load += sta.WireCapPerMicron*l + bufInCap(opt)
		}
	} else {
		for _, si := range n.sinks {
			l := math.Abs(b.x[si]-n.x) + math.Abs(b.y[si]-n.y)
			wl += l
			load += sta.WireCapPerMicron*l + b.cap[si]
		}
	}
	n.loadCap = load
	n.wireLen = wl
	*wlSum += wl

	bufDelay := bufferDelay(opt, load)
	out := at + bufDelay
	if len(n.children) > 0 {
		for _, c := range n.children {
			l := math.Abs(c.x-n.x) + math.Abs(c.y-n.y)
			b.annotateSub(c, opt, res, wlSum, out+wireDelay(l, bufInCap(opt)))
		}
		return
	}
	for _, si := range n.sinks {
		l := math.Abs(b.x[si]-n.x) + math.Abs(b.y[si]-n.y)
		ins := out + wireDelay(l, b.cap[si])
		pin := netlist.PinRef{Inst: int(b.inst[si]), Pin: int(b.mp[si])}
		res.ArrivalList = append(res.ArrivalList, sta.ClockArrival{Pin: pin, T: ins})
		if ins > res.MaxInsertion {
			res.MaxInsertion = ins
		}
		if ins < res.MinInsertion {
			res.MinInsertion = ins
		}
	}
}

func bufferDelay(opt Options, load float64) float64 {
	for pi := range opt.BufMaster.Pins {
		mp := &opt.BufMaster.Pins[pi]
		if mp.Dir != netlist.DirOutput {
			continue
		}
		for ai := range mp.Arcs {
			arc := &mp.Arcs[ai]
			if arc.Kind == netlist.ArcComb {
				return arc.Delay.Lookup(inputSlew, load)
			}
		}
	}
	return 25e-12
}

// EstimatePower fills in the clock-tree dynamic power adder: every buffer
// output and tree wire toggles at the clock activity (2 transitions/cycle).
func (r *Result) EstimatePower(opt Options, clockPeriod, vdd float64) {
	if clockPeriod <= 0 {
		return
	}
	freq := 1 / clockPeriod
	wireCap := sta.WireCapPerMicron * r.WirelengthUM
	bufCap := float64(r.Buffers) * bufInCap(opt)
	var energy float64
	for pi := range opt.BufMaster.Pins {
		mp := &opt.BufMaster.Pins[pi]
		for ai := range mp.Arcs {
			energy += mp.Arcs[ai].Energy
		}
	}
	// Activity 2 toggles/cycle on every clock node.
	r.Power = (0.5*(wireCap+bufCap)*vdd*vdd)*2*freq + float64(r.Buffers)*energy*2*freq
}
