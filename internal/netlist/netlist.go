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
	"sync"

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
// arc belongs to the output pin and From names the related input; for
// ArcSetup/ArcHold the arc belongs to the data input and From names the
// clock pin.
type TimingArc struct {
	From   string
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

// Master is a library cell (standard cell or macro).
type Master struct {
	Name    string
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

// Pin returns the pin with the given name, or nil.
func (m *Master) Pin(name string) *MasterPin {
	if i, ok := m.pinIdx[name]; ok {
		return &m.Pins[i]
	}
	return nil
}

// PinIndex returns the index of the named pin in Pins, or -1. Flat consumers
// (the compact STA graph) key per-instance pin arrays by this index instead
// of hashing pin-name strings.
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

// AddMaster registers a master; it fails on duplicate names.
func (l *Library) AddMaster(m *Master) error {
	if _, dup := l.masters[m.Name]; dup {
		return fmt.Errorf("library %s: duplicate master %q", l.Name, m.Name)
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

// PinRef identifies one connection of a net: either pin Pin of instance
// Inst, or (when Inst < 0) the top-level port named Pin.
type PinRef struct {
	Inst int
	Pin  string
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

// Design is the complete in-memory design.
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

	instByName map[string]int
	netByName  map[string]int
	portByName map[string]int

	// Compact-view cache: topoGen counts topology mutations; the cached
	// view is valid while its generation matches.
	topoGen   uint64
	compact   *Compact
	compactMu sync.Mutex
}

// NewDesign returns an empty design bound to the given library.
func NewDesign(name string, lib *Library) *Design {
	return NewDesignSized(name, lib, 0, 0)
}

// NewDesignSized returns an empty design with name-index maps pre-sized for
// the expected instance and net counts, so million-cell construction does not
// rehash-thrash. Zero capacities behave like NewDesign.
func NewDesignSized(name string, lib *Library, instCap, netCap int) *Design {
	return &Design{
		Name:       name,
		Lib:        lib,
		Insts:      make([]*Instance, 0, instCap),
		Nets:       make([]*Net, 0, netCap),
		instByName: make(map[string]int, instCap),
		netByName:  make(map[string]int, netCap),
		portByName: make(map[string]int),
	}
}

// AddInstance creates an instance of master and returns it.
func (d *Design) AddInstance(name string, master *Master) (*Instance, error) {
	if master == nil {
		return nil, fmt.Errorf("design %s: instance %q has nil master", d.Name, name)
	}
	if _, dup := d.instByName[name]; dup {
		return nil, fmt.Errorf("design %s: duplicate instance %q", d.Name, name)
	}
	inst := &Instance{ID: len(d.Insts), Name: name, Master: master}
	d.Insts = append(d.Insts, inst)
	d.instByName[name] = inst.ID
	d.topoGen++
	return inst, nil
}

// AddNet creates an empty net and returns it.
func (d *Design) AddNet(name string) (*Net, error) {
	if _, dup := d.netByName[name]; dup {
		return nil, fmt.Errorf("design %s: duplicate net %q", d.Name, name)
	}
	n := &Net{ID: len(d.Nets), Name: name, Weight: 1}
	d.Nets = append(d.Nets, n)
	d.netByName[name] = n.ID
	d.topoGen++
	return n, nil
}

// AddPort creates a top-level port and returns it.
func (d *Design) AddPort(name string, dir PinDir) (*Port, error) {
	if _, dup := d.portByName[name]; dup {
		return nil, fmt.Errorf("design %s: duplicate port %q", d.Name, name)
	}
	p := &Port{Name: name, Dir: dir}
	d.Ports = append(d.Ports, p)
	d.portByName[name] = len(d.Ports) - 1
	d.topoGen++
	return p, nil
}

// Connect attaches pin ref to net n. It does not check for duplicates; real
// netlists legitimately connect one net to an instance on multiple pins.
func (d *Design) Connect(n *Net, ref PinRef) {
	n.Pins = append(n.Pins, ref)
	d.topoGen++
}

// Instance returns the instance with the given name, or nil.
func (d *Design) Instance(name string) *Instance {
	if i, ok := d.instByName[name]; ok {
		return d.Insts[i]
	}
	return nil
}

// Net returns the net with the given name, or nil.
func (d *Design) Net(name string) *Net {
	if i, ok := d.netByName[name]; ok {
		return d.Nets[i]
	}
	return nil
}

// Port returns the port with the given name, or nil.
func (d *Design) Port(name string) *Port {
	if i, ok := d.portByName[name]; ok {
		return d.Ports[i]
	}
	return nil
}

// PortIndex returns the index of the named port, or -1.
func (d *Design) PortIndex(name string) int {
	if i, ok := d.portByName[name]; ok {
		return i
	}
	return -1
}

// Driver returns the driving pin reference of net n: the first output
// instance pin, else the first input port. ok is false for undriven nets.
func (d *Design) Driver(n *Net) (PinRef, bool) {
	for _, p := range n.Pins {
		if p.IsPort() {
			continue
		}
		mp := d.Insts[p.Inst].Master.Pin(p.Pin)
		if mp != nil && mp.Dir == DirOutput {
			return p, true
		}
	}
	for _, p := range n.Pins {
		if p.IsPort() {
			if port := d.Port(p.Pin); port != nil && port.Dir == DirInput {
				return p, true
			}
		}
	}
	return PinRef{}, false
}

// PinPos returns the physical position of a pin reference. Instance pins use
// the master pin offset when available, otherwise the instance center.
func (d *Design) PinPos(p PinRef) (x, y float64) {
	if p.IsPort() {
		port := d.Port(p.Pin)
		if port == nil {
			return 0, 0
		}
		return port.X, port.Y
	}
	inst := d.Insts[p.Inst]
	if mp := inst.Master.Pin(p.Pin); mp != nil && (mp.OffsetX != 0 || mp.OffsetY != 0) {
		return inst.X + mp.OffsetX, inst.Y + mp.OffsetY
	}
	return inst.CenterX(), inst.CenterY()
}

// NetHPWL returns the half-perimeter wirelength of net n.
func (d *Design) NetHPWL(n *Net) float64 {
	if len(n.Pins) < 2 {
		return 0
	}
	minX, minY := 1e308, 1e308
	maxX, maxY := -1e308, -1e308
	for _, p := range n.Pins {
		x, y := d.PinPos(p)
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// HPWL returns the total half-perimeter wirelength over all nets. It runs on
// the flat Compact view (contiguous pin arrays instead of per-pin pointer
// chasing); the per-net values and the net-order sum are bit-identical to
// summing NetHPWL over d.Nets.
func (d *Design) HPWL() float64 {
	return d.Compact().hpwl()
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

// Validate checks referential integrity of the design.
func (d *Design) Validate() error {
	for _, inst := range d.Insts {
		if inst.Master == nil {
			return fmt.Errorf("instance %q has nil master", inst.Name)
		}
	}
	for _, n := range d.Nets {
		for _, p := range n.Pins {
			if p.IsPort() {
				if d.Port(p.Pin) == nil {
					return fmt.Errorf("net %q references unknown port %q", n.Name, p.Pin)
				}
				continue
			}
			if p.Inst >= len(d.Insts) {
				return fmt.Errorf("net %q references instance %d out of range", n.Name, p.Inst)
			}
			if d.Insts[p.Inst].Master.Pin(p.Pin) == nil {
				return fmt.Errorf("net %q references unknown pin %s/%s", n.Name, d.Insts[p.Inst].Name, p.Pin)
			}
		}
	}
	return nil
}

// Clone deep-copies the design's instances, nets and ports (the library is
// shared, as masters are immutable during a flow).
func (d *Design) Clone() *Design {
	c := NewDesign(d.Name, d.Lib)
	c.Die, c.Core = d.Die, d.Core
	c.RowHeight, c.SiteWidth = d.RowHeight, d.SiteWidth
	c.Insts = make([]*Instance, len(d.Insts))
	for i, inst := range d.Insts {
		cp := *inst
		c.Insts[i] = &cp
		c.instByName[cp.Name] = i
	}
	c.Nets = make([]*Net, len(d.Nets))
	for i, n := range d.Nets {
		cp := *n
		cp.Pins = append([]PinRef(nil), n.Pins...)
		c.Nets[i] = &cp
		c.netByName[cp.Name] = i
	}
	c.Ports = make([]*Port, len(d.Ports))
	for i, p := range d.Ports {
		cp := *p
		c.Ports[i] = &cp
		c.portByName[cp.Name] = i
	}
	return c
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
