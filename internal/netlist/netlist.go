// Package netlist is the design database shared by every stage of the flow:
// parsers fill it, timing/power analyze it, clustering coarsens it, placement
// and routing annotate geometry onto it.
//
// It plays the role OpenDB plays in the paper's flow: a single in-memory
// representation of the netlist (.v), library (.lib/.lef), floorplan (.def)
// and constraints (.sdc).
package netlist

import (
	"fmt"
	"strings"

	"ppaclust/internal/hypergraph"
)

// PinDir is the direction of a library pin or top-level port.
type PinDir int

// Pin directions.
const (
	DirInput PinDir = iota
	DirOutput
	DirInout
)

// MasterClass distinguishes standard cells from macros and pads.
type MasterClass int

// Master classes.
const (
	ClassCore MasterClass = iota
	ClassMacro
	ClassPad
)

// ArcKind is the kind of a timing arc.
type ArcKind int

// Arc kinds.
const (
	ArcComb   ArcKind = iota // combinational input -> output
	ArcClkToQ                // clock edge -> output
	ArcSetup                 // setup check: data input vs clock
	ArcHold                  // hold check: data input vs clock
)

// Table is a 2-D NLDM-style lookup table indexed by input slew and output
// load. A table with empty axes is a constant (Values[0][0]).
type Table struct {
	Slews  []float64
	Loads  []float64
	Values [][]float64
}

// Const returns a constant table.
func Const(v float64) Table {
	return Table{Slews: []float64{0}, Loads: []float64{0}, Values: [][]float64{{v}}}
}

// Lookup bilinearly interpolates the table at (slew, load), clamping to the
// table boundary (the standard EDA extrapolation-free convention).
func (t *Table) Lookup(slew, load float64) float64 {
	if len(t.Values) == 0 {
		return 0
	}
	i0, i1, fi := locate(t.Slews, slew)
	j0, j1, fj := locate(t.Loads, load)
	v00 := t.Values[i0][j0]
	v01 := t.Values[i0][j1]
	v10 := t.Values[i1][j0]
	v11 := t.Values[i1][j1]
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

func locate(axis []float64, x float64) (lo, hi int, frac float64) {
	n := len(axis)
	if n <= 1 {
		return 0, 0, 0
	}
	if x <= axis[0] {
		return 0, 0, 0
	}
	if x >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	for i := 1; i < n; i++ {
		if x <= axis[i] {
			f := (x - axis[i-1]) / (axis[i] - axis[i-1])
			return i - 1, i, f
		}
	}
	return n - 1, n - 1, 0
}

// TimingArc is one timing arc of a master pin. For ArcComb and ArcClkToQ the
// arc belongs to the output pin and From is the related input; for
// ArcSetup/ArcHold the arc belongs to the data input and From is the clock
// pin. From indexes Master.Pins: the liberty reader resolves related_pin into
// it, the STA follows it, and the liberty writer prints the pin's name.
type TimingArc struct {
	From   int
	Kind   ArcKind
	Delay  Table
	Slew   Table
	Energy float64 // internal energy per output transition (J)
}

// MasterPin is a pin of a library master.
type MasterPin struct {
	Name    string
	Dir     PinDir
	Cap     float64 // input pin capacitance (F)
	MaxCap  float64 // max load for outputs (F); 0 = unlimited
	Clock   bool
	OffsetX float64 // pin location relative to instance origin
	OffsetY float64
	Arcs    []TimingArc
}

// CellFunc is a master's logic function: an index into cellFuncs, set from
// the master's name family when it joins a library (Library.AddMaster). The
// zero value is every other cell: registers, macros, unknown families.
type CellFunc uint8

// cellFuncs holds, per function, its name prefixes (matched ignoring case;
// none is a prefix of another, so the order does not matter), its activity
// factor and its one-hot slot.
var cellFuncs = []struct {
	prefixes []string
	factor   float64
	slot     int
}{
	{nil, 1, 7},
	{[]string{"INV"}, 1, 0},
	{[]string{"BUF", "CLKBUF"}, 1, 1},
	{[]string{"NAND"}, 0.75, 2},
	{[]string{"NOR"}, 0.75, 3},
	{[]string{"AND", "OR"}, 0.75, 4},
	{[]string{"XOR", "XNOR"}, 1.5, 5},
	{[]string{"MUX"}, 0.9, 6},
	{[]string{"AOI", "OAI"}, 0.75, 6},
}

// ActivityFactor is the ratio of output to input switching activity in the
// STA's vectorless propagation: XOR-class gates amplify toggling, masking
// gates attenuate it, the rest pass it on.
func (f CellFunc) ActivityFactor() float64 { return cellFuncs[f].factor }

// OneHotSlot is the cell-type slot of the GNN node features, in [0, 8).
func (f CellFunc) OneHotSlot() int { return cellFuncs[f].slot }

// Master is a library cell (standard cell or macro).
type Master struct {
	Name    string
	Func    CellFunc // set by Library.AddMaster
	Class   MasterClass
	Width   float64
	Height  float64
	Leakage float64 // leakage power (W)
	Pins    []MasterPin
	pinIdx  map[string]int
}

// AddPin appends a pin to the master and returns it.
func (m *Master) AddPin(p MasterPin) *MasterPin {
	if m.pinIdx == nil {
		m.pinIdx = make(map[string]int)
	}
	m.Pins = append(m.Pins, p)
	m.pinIdx[p.Name] = len(m.Pins) - 1
	return &m.Pins[len(m.Pins)-1]
}

// PinIndex returns the index of the named pin in Pins, or -1. Only the
// readers look pins up by name; every later stage works on the index.
func (m *Master) PinIndex(name string) int {
	if i, ok := m.pinIdx[name]; ok {
		return i
	}
	return -1
}

// Area returns the footprint area of the master.
func (m *Master) Area() float64 { return m.Width * m.Height }

// IsSequential reports whether the master has any clock-to-output arc.
func (m *Master) IsSequential() bool {
	for i := range m.Pins {
		for j := range m.Pins[i].Arcs {
			if m.Pins[i].Arcs[j].Kind == ArcClkToQ {
				return true
			}
		}
	}
	return false
}

// Library is a set of masters plus unit conventions. Times are seconds,
// capacitances farads, powers watts, distances microns throughout.
type Library struct {
	Name    string
	masters map[string]*Master
	order   []string
}

// NewLibrary returns an empty library.
func NewLibrary(name string) *Library {
	return &Library{Name: name, masters: make(map[string]*Master)}
}

// AddMaster registers a master and sets its Func from its name; it fails on
// duplicate names.
func (l *Library) AddMaster(m *Master) error {
	if _, dup := l.masters[m.Name]; dup {
		return fmt.Errorf("library %s: duplicate master %q", l.Name, m.Name)
	}
	u := strings.ToUpper(m.Name)
	for f, c := range cellFuncs {
		for _, p := range c.prefixes {
			if strings.HasPrefix(u, p) {
				m.Func = CellFunc(f)
			}
		}
	}
	l.masters[m.Name] = m
	l.order = append(l.order, m.Name)
	return nil
}

// Master returns the master with the given name, or nil.
func (l *Library) Master(name string) *Master { return l.masters[name] }

// MasterNames returns master names in registration order.
func (l *Library) MasterNames() []string { return l.order }

// Rect is an axis-aligned rectangle.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// W returns the rectangle width.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// PerimeterPoint returns the point at distance t along the rectangle's
// boundary, walked counter-clockwise from (X0, Y0): bottom, right, top,
// then left edge. The floorplans space ports evenly along this walk.
func (r Rect) PerimeterPoint(t float64) (float64, float64) {
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

// PinRef identifies one connection of a net: master pin Pin (an index into
// Master.Pins) of instance Inst, or, when Inst < 0, the top-level port with
// index Pin in Design.Ports. The readers turn names into references once,
// instance pins through PinRefOf and ports through their own name index;
// every later stage works on the indices.
type PinRef struct {
	Inst int
	Pin  int
}

// IsPort reports whether the reference names a top-level port.
func (p PinRef) IsPort() bool { return p.Inst < 0 }

// Net is a hyperedge of the netlist.
type Net struct {
	ID     int
	Name   string
	Pins   []PinRef
	Weight float64 // placement net weight (default 1)
	Clock  bool    // marked by SDC clock propagation
}

// Port is a top-level IO of the design.
type Port struct {
	Name   string
	Dir    PinDir
	X, Y   float64
	Placed bool
}

// Instance is a placed (or yet unplaced) occurrence of a master.
type Instance struct {
	ID     int
	Name   string // full hierarchical name, '/'-separated
	Master *Master
	X, Y   float64 // lower-left corner when placed
	Placed bool
	Fixed  bool
}

// CenterX returns the x coordinate of the instance center.
func (i *Instance) CenterX() float64 { return i.X + i.Master.Width/2 }

// CenterY returns the y coordinate of the instance center.
func (i *Instance) CenterY() float64 { return i.Y + i.Master.Height/2 }

// HierPath returns the hierarchical scope names of the instance, excluding
// the leaf instance name itself. A flat instance returns nil.
func (i *Instance) HierPath() []string {
	parts := strings.Split(i.Name, "/")
	if len(parts) <= 1 {
		return nil
	}
	return parts[:len(parts)-1]
}

// Design is the complete in-memory design. Its connectivity (instances,
// nets, ports and every net's pins) is fixed when a Builder builds it; what
// changes afterwards is per-element state: positions, Placed/Fixed, net
// Weight and Clock.
type Design struct {
	Name      string
	Lib       *Library
	Insts     []*Instance
	Nets      []*Net
	Ports     []*Port
	Die       Rect
	Core      Rect
	RowHeight float64
	SiteWidth float64

	// compact is the connectivity view Build made; clones share it.
	compact *Compact
	// pos is HPWL's position scratch, so HPWL must not run concurrently on
	// one design.
	pos Positions
}

// Builder is the one way to make a Design. It records instances, nets,
// ports and connections; Build checks them once and lays the design's
// connectivity out. The embedded Design is the one Build returns: before
// Build its nets hold no pins and it has no Compact view, so nothing that
// reads connectivity may run on it. A Builder builds one design; nothing
// may be added after Build. It keeps no name index: the readers resolve names
// while they parse, and every later stage addresses instances, nets and
// ports by index.
type Builder struct {
	*Design
	// The instances, nets and ports the design points to, and every
	// Connect in call order.
	insts chunks[Instance]
	nets  chunks[Net]
	ports chunks[Port]
	conns chunks[conn]
}

// chunks stores values in chunks whose capacity doubles from 16 to 1 024
// entries: a full chunk is never copied to grow, so a pointer to a stored
// value stays valid. A design's objects take one allocation per 1 024, not
// one each, and the design keeps fewer than 1 024 unused entries of each
// kind, or fewer than it uses.
type chunks[T any] [][]T

// add stores v and returns a pointer to the stored copy.
func (c *chunks[T]) add(v T) *T {
	k := len(*c) - 1
	if k < 0 || len((*c)[k]) == cap((*c)[k]) {
		*c = append(*c, make([]T, 0, 16<<min(len(*c), 6)))
		k++
	}
	(*c)[k] = append((*c)[k], v)
	return &(*c)[k][len((*c)[k])-1]
}

// conn is one recorded Connect: the pin and the ID of its net.
type conn struct {
	ref PinRef
	net int
}

// NewBuilder returns a builder of an empty design bound to lib.
func NewBuilder(name string, lib *Library) *Builder {
	return &Builder{Design: &Design{Name: name, Lib: lib}}
}

// AddInstance creates an instance of master and returns it. Names are not
// checked: the readers reject a duplicate, and every other caller derives
// its names from indices.
func (b *Builder) AddInstance(name string, master *Master) *Instance {
	inst := b.insts.add(Instance{ID: len(b.Insts), Name: name, Master: master})
	b.Insts = append(b.Insts, inst)
	return inst
}

// AddNet creates an empty net and returns it.
func (b *Builder) AddNet(name string) *Net {
	n := b.nets.add(Net{ID: len(b.Nets), Name: name, Weight: 1})
	b.Nets = append(b.Nets, n)
	return n
}

// AddPort creates a top-level port and returns it; its PinRef is
// PinRef{Inst: -1, Pin: len(b.Ports) - 1}.
func (b *Builder) AddPort(name string, dir PinDir) *Port {
	p := b.ports.add(Port{Name: name, Dir: dir})
	b.Ports = append(b.Ports, p)
	return p
}

// Connect attaches pin ref to net n; a net's pins keep the order of their
// Connect calls. It does not check for duplicates (real netlists
// legitimately connect one net to an instance on multiple pins) and does
// not check the reference: Build does.
func (b *Builder) Connect(n *Net, ref PinRef) {
	b.conns.add(conn{ref, n.ID})
}

// PinRefOf resolves pin name of instance inst to its reference. It is the
// one place a master pin name becomes a PinRef; an instance out of range and
// a pin the instance's master does not declare are errors. A port's
// reference needs no lookup: port i is PinRef{Inst: -1, Pin: i}.
func (d *Design) PinRefOf(inst int, name string) (PinRef, error) {
	if inst < 0 || inst >= len(d.Insts) {
		return PinRef{}, fmt.Errorf("design %s has no instance %d (pin %s)", d.Name, inst, name)
	}
	m := d.Insts[inst].Master
	if i := m.PinIndex(name); i >= 0 {
		return PinRef{Inst: inst, Pin: i}, nil
	}
	return PinRef{}, fmt.Errorf("cell %s has no pin %q", m.Name, name)
}

// PinName returns the name of the pin p refers to: the port name, or the
// master pin name. The reference must be in range, as Build checks.
func (d *Design) PinName(p PinRef) string {
	if p.IsPort() {
		return d.Ports[p.Pin].Name
	}
	return d.Insts[p.Inst].Master.Pins[p.Pin].Name
}

// HPWL returns the total half-perimeter wirelength over all nets: the
// Compact view's NetHPWL at the current positions, summed in net order. It
// gathers the positions into the design's own scratch, so it must not run
// concurrently on one design; clones have their own.
func (d *Design) HPWL() float64 {
	d.pos.Gather(d)
	var sum float64
	for n := range d.Nets {
		sum += d.compact.NetHPWL(&d.pos, n)
	}
	return sum
}

// HPWLWorkers is HPWL; workers is ignored; kept for frozen benchmark/replay.go.
func (d *Design) HPWLWorkers(workers int) float64 {
	return d.HPWL()
}

// TotalCellArea returns the summed footprint area of all instances.
func (d *Design) TotalCellArea() float64 {
	var a float64
	for _, inst := range d.Insts {
		a += inst.Master.Area()
	}
	return a
}

// Utilization returns cell area divided by core area.
func (d *Design) Utilization() float64 {
	ca := d.Core.Area()
	if ca <= 0 {
		return 0
	}
	return d.TotalCellArea() / ca
}

// HypergraphView maps a design onto a hypergraph whose vertices are
// instances (in ID order) and whose edges are nets with at least two
// distinct instance pins.
type HypergraphView struct {
	H *hypergraph.Hypergraph
	// NetOfEdge maps hypergraph edge ID to design net ID.
	NetOfEdge []int
	// EdgeOfNet maps design net ID to hypergraph edge ID, or -1.
	EdgeOfNet []int
	// IOEdge marks edges whose net also touches a top-level port.
	IOEdge []bool
}

// ToHypergraph builds the clustering view of the design. Vertex weights are
// instance areas; edge weights are net weights. The build runs on the
// Compact CSR view with an epoch-stamped dedup scratch, so a million-cell
// design maps without per-net map allocation.
func (d *Design) ToHypergraph() *HypergraphView {
	c := d.Compact()
	h := hypergraph.NewWithCap(len(d.Insts), len(d.Nets), len(c.PinInst))
	for _, inst := range d.Insts {
		h.SetVertexWeight(inst.ID, inst.Master.Area())
	}
	view := &HypergraphView{
		H:         h,
		EdgeOfNet: make([]int, len(d.Nets)),
		NetOfEdge: make([]int, 0, len(d.Nets)),
		IOEdge:    make([]bool, 0, len(d.Nets)),
	}
	stamp := make([]int32, len(d.Insts))
	for i := range stamp {
		stamp[i] = -1
	}
	var verts []int
	for ni, n := range d.Nets {
		verts = verts[:0]
		io := false
		for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
			id := c.PinInst[k]
			if id < 0 {
				io = true
			} else if stamp[id] != int32(ni) {
				stamp[id] = int32(ni)
				verts = append(verts, int(id))
			}
		}
		if len(verts) < 2 {
			view.EdgeOfNet[ni] = -1
			continue
		}
		e := h.AddEdge(verts, n.Weight)
		view.EdgeOfNet[ni] = e
		view.NetOfEdge = append(view.NetOfEdge, ni)
		view.IOEdge = append(view.IOEdge, io)
	}
	return view
}

// Clone copies the design's per-element state (instances, nets and ports
// with their positions, Placed/Fixed, Weight and Clock) and shares its
// topology: every net's pin list and the Compact view, both fixed since
// Build. The library is shared too, as masters are immutable during a flow.
func (d *Design) Clone() *Design {
	c := &Design{Name: d.Name, Lib: d.Lib, Die: d.Die, Core: d.Core,
		RowHeight: d.RowHeight, SiteWidth: d.SiteWidth, compact: d.compact}
	c.Insts = clonePtrs(d.Insts)
	c.Nets = clonePtrs(d.Nets)
	c.Ports = clonePtrs(d.Ports)
	return c
}

// clonePtrs copies every element of s into one new backing array and
// returns pointers to the copies, in order.
func clonePtrs[T any](s []*T) []*T {
	vals := make([]T, len(s))
	out := make([]*T, len(s))
	for i, p := range s {
		vals[i] = *p
		out[i] = &vals[i]
	}
	return out
}

// Stats summarizes a design for reporting (Table 1 of the paper).
type Stats struct {
	Name   string
	Insts  int
	Nets   int
	Ports  int
	Macros int
	Seq    int
	Area   float64
}

// Stats returns summary statistics of the design.
func (d *Design) Stats() Stats {
	s := Stats{Name: d.Name, Insts: len(d.Insts), Nets: len(d.Nets), Ports: len(d.Ports)}
	for _, inst := range d.Insts {
		if inst.Master.Class == ClassMacro {
			s.Macros++
		}
		if inst.Master.IsSequential() {
			s.Seq++
		}
		s.Area += inst.Master.Area()
	}
	return s
}
