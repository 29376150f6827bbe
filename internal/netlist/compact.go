package netlist

import (
	"fmt"
	"math"
)

// Compact is the flat struct-of-arrays/CSR view of a design's connectivity,
// built once per topology and consumed by the hot paths (HPWL, WirelenCache,
// the global placer's system assembly, STA, routing, CTS). It is the one
// place a PinRef is resolved: where the pointer API walks
// *Net -> []PinRef -> *Instance -> *Master -> map lookup per pin, the compact
// view resolves every pin once at build time into parallel arrays — owning
// instance (or port), master pin, and the pin's X/Y offset from the instance
// origin — so inner loops touch contiguous int32/float64 memory only. Every
// slot resolves: a reference to an undeclared port, an undeclared master pin
// or an out-of-range instance is a build error (CompactChecked).
//
// Index conventions:
//   - Net n's pins occupy PinInst/PinMP[NetStart[n]:NetStart[n+1]], in the
//     net's pin order.
//   - PinInst[k] >= 0 is an instance ID; PinInst[k] < 0 encodes the port
//     with index -1-PinInst[k].
//   - Instance i's distinct incident nets occupy
//     InstNets[InstStart[i]:InstStart[i+1]] in ascending net-ID order, each
//     net once however many of its pins the instance owns.
//
// A Compact is a topology snapshot: it stays valid while only positions
// (Instance.X/Y, Port.X/Y) change. Any mutation through AddInstance, AddNet,
// AddPort, Connect, or InvalidateConnectivity retires it; the next
// Design.Compact() call rebuilds. An instance pin's offset is the master pin
// offset when either component is nonzero, otherwise the cell center; PinXY
// adds it to the instance origin.
type Compact struct {
	d   *Design
	gen uint64

	// Net -> pin CSR.
	NetStart []int32
	PinInst  []int32
	// PinMP[k] is the master-pin index of pin k within its instance's master
	// (Master.PinIndex), or -1 for port pins.
	PinMP []int32
	// pinDX/pinDY[k] is instance pin k's resolved offset from its
	// instance's origin (0 for port pins).
	pinDX, pinDY []float64

	// NetDrv[n] is the pin slot (index into PinInst) of net n's driver — the
	// first instance pin whose master pin is an output, else the first pin
	// naming an input port — or -1 for undriven nets.
	NetDrv []int32

	// Instance -> distinct incident nets CSR.
	InstStart []int32
	InstNets  []int32

	// Position snapshot for HPWL. Owned by the compact view: HPWL
	// overwrites it on entry, so concurrent HPWL calls must not share one
	// Compact.
	pos Positions
}

// Positions is a snapshot of a design's instance origins and port
// coordinates in flat arrays, the positions Compact.PinXY and
// Compact.NetHPWL resolve pins against. Every stage that reads pin positions
// in bulk (HPWL, the wirelength cache, the STA refresh, the router, CTS)
// gathers one.
type Positions struct {
	InstX, InstY []float64
	PortX, PortY []float64
}

// Gather (re)fills p from d's current instance origins and port
// coordinates, reusing its arrays when their lengths still match.
func (p *Positions) Gather(d *Design) {
	if len(p.InstX) != len(d.Insts) {
		p.InstX = make([]float64, len(d.Insts))
		p.InstY = make([]float64, len(d.Insts))
	}
	for i, inst := range d.Insts {
		p.InstX[i] = inst.X
		p.InstY[i] = inst.Y
	}
	if len(p.PortX) != len(d.Ports) {
		p.PortX = make([]float64, len(d.Ports))
		p.PortY = make([]float64, len(d.Ports))
	}
	for i, port := range d.Ports {
		p.PortX[i] = port.X
		p.PortY[i] = port.Y
	}
}

// NumNetPins returns the pin count of net n, including port pins.
func (c *Compact) NumNetPins(n int) int {
	return int(c.NetStart[n+1] - c.NetStart[n])
}

// Compact returns the design's flat connectivity view, building it on first
// use and after every topology mutation. The build is O(pins) and the result
// is cached, so repeated calls between mutations are free. A design that
// CompactChecked rejects panics here; the flow boundary calls CompactChecked
// first, so every stage behind it may use this must-style form.
func (d *Design) Compact() *Compact {
	c, err := d.CompactChecked()
	if err != nil {
		panic(err) //ppalint:ignore nopanic must-style wrapper over CompactChecked for callers behind the flow's checked boundary, matching designs' must/mustAdd idiom
	}
	return c
}

// CompactChecked is Compact with the build's checks surfaced as an error
// instead of a panic: a pin naming an undeclared port, an undeclared master
// pin or an out-of-range instance, and a pin count beyond the math.MaxInt32
// the int32 CSR can index, past which truncation would silently corrupt
// connectivity.
func (d *Design) CompactChecked() (*Compact, error) {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	if d.compact != nil && d.compact.gen == d.topoGen {
		return d.compact, nil
	}
	c, err := buildCompact(d, d.topoGen)
	if err != nil {
		return nil, err
	}
	d.compact = c
	return c, nil
}

// InvalidateConnectivity retires the cached Compact view after direct
// net-pin surgery (code that rewires Net.Pins in place instead of going
// through Connect, such as buffer insertion).
func (d *Design) InvalidateConnectivity() {
	d.topoGen++
}

func buildCompact(d *Design, gen uint64) (*Compact, error) {
	c := &Compact{d: d, gen: gen}
	nPins := 0
	for _, n := range d.Nets {
		nPins += len(n.Pins)
	}
	// Every int32 below — pin slots, net ids, instance ids — is bounded by
	// nPins or by a count it dominates, so this single check covers the
	// build's conversions.
	if nPins > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: design has %d pins, beyond the %d the int32 compact CSR can index", nPins, math.MaxInt32)
	}
	c.NetStart = make([]int32, len(d.Nets)+1)
	c.PinInst = make([]int32, 0, nPins)
	c.pinDX = make([]float64, 0, nPins)
	c.pinDY = make([]float64, 0, nPins)
	c.PinMP = make([]int32, 0, nPins)
	c.NetDrv = make([]int32, len(d.Nets))
	for ni, n := range d.Nets {
		c.NetStart[ni] = int32(len(c.PinInst))
		drvSlot := int32(-1)     // first output instance pin
		portDrvSlot := int32(-1) // first input-port pin (fallback)
		for _, p := range n.Pins {
			var id int32
			var mpIdx int32 = -1
			var dx, dy float64
			slot := int32(len(c.PinInst))
			if p.IsPort() {
				pi := d.PortIndex(p.Pin)
				if pi < 0 {
					return nil, fmt.Errorf("netlist: net %q references undeclared port %q", n.Name, p.Pin)
				}
				id = -1 - int32(pi)
				if portDrvSlot < 0 && d.Ports[pi].Dir == DirInput {
					portDrvSlot = slot
				}
			} else {
				if p.Inst >= len(d.Insts) {
					return nil, fmt.Errorf("netlist: net %q references instance %d of %d (pin %s)", n.Name, p.Inst, len(d.Insts), p.Pin)
				}
				id = int32(p.Inst)
				inst := d.Insts[p.Inst]
				m := inst.Master
				i := m.PinIndex(p.Pin)
				if i < 0 {
					return nil, fmt.Errorf("netlist: net %q references pin %s/%s, which master %s does not declare", n.Name, inst.Name, p.Pin, m.Name)
				}
				mpIdx = int32(i)
				mp := &m.Pins[i]
				if mp.OffsetX != 0 || mp.OffsetY != 0 {
					dx, dy = mp.OffsetX, mp.OffsetY
				} else {
					dx, dy = m.Width/2, m.Height/2
				}
				if drvSlot < 0 && mp.Dir == DirOutput {
					drvSlot = slot
				}
			}
			c.PinInst = append(c.PinInst, id)
			c.pinDX = append(c.pinDX, dx)
			c.pinDY = append(c.pinDY, dy)
			c.PinMP = append(c.PinMP, mpIdx)
		}
		if drvSlot >= 0 {
			c.NetDrv[ni] = drvSlot
		} else {
			c.NetDrv[ni] = portDrvSlot
		}
	}
	c.NetStart[len(d.Nets)] = int32(len(c.PinInst))

	// Instance -> net CSR: count distinct instances per net (dedup with a
	// last-net stamp), prefix-sum, fill. Filling in net order leaves each
	// instance's nets in ascending net-ID order.
	lastNet := make([]int32, len(d.Insts))
	for i := range lastNet {
		lastNet[i] = -1
	}
	deg := make([]int32, len(d.Insts))
	for ni := range d.Nets {
		for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
			if id := c.PinInst[k]; id >= 0 && lastNet[id] != int32(ni) {
				lastNet[id] = int32(ni)
				deg[id]++
			}
		}
	}
	c.InstStart = make([]int32, len(d.Insts)+1)
	var total int32
	for i, dg := range deg {
		c.InstStart[i] = total
		total += dg
	}
	c.InstStart[len(d.Insts)] = total
	c.InstNets = make([]int32, total)
	fill := make([]int32, len(d.Insts))
	copy(fill, c.InstStart[:len(d.Insts)])
	for i := range lastNet {
		lastNet[i] = -1
	}
	for ni := range d.Nets {
		for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
			if id := c.PinInst[k]; id >= 0 && lastNet[id] != int32(ni) {
				lastNet[id] = int32(ni)
				c.InstNets[fill[id]] = int32(ni)
				fill[id]++
			}
		}
	}
	return c, nil
}

// PinXY returns pin slot k's position under p: its instance's origin plus
// the pin's resolved offset, or its port's coordinates. It is the one
// pin-position rule of the code base.
func (c *Compact) PinXY(p *Positions, k int32) (x, y float64) {
	id := c.PinInst[k]
	if id >= 0 {
		return p.InstX[id] + c.pinDX[k], p.InstY[id] + c.pinDY[k]
	}
	return p.PortX[-1-id], p.PortY[-1-id]
}

// NetHPWL returns net n's half-perimeter wirelength under p: the half
// perimeter of its pins' bounding box by PinXY, 0 for a net with fewer than
// two pins. Every HPWL in the code base is a sum of these, in net order.
func (c *Compact) NetHPWL(p *Positions, n int) float64 {
	if c.NumNetPins(n) < 2 {
		return 0
	}
	minX, maxX, minY, maxY := c.netBox(p, n)
	return (maxX - minX) + (maxY - minY)
}

// netBox returns the bounding box of net n's pins under p. A bound moves
// only on a strict inequality, so among equal coordinates the first pin in
// net order defines it; WirelenCache's incremental expansion relies on this.
func (c *Compact) netBox(p *Positions, n int) (minX, maxX, minY, maxY float64) {
	minX, minY = 1e308, 1e308
	maxX, maxY = -1e308, -1e308
	for k := c.NetStart[n]; k < c.NetStart[n+1]; k++ {
		x, y := c.PinXY(p, k)
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
	return minX, maxX, minY, maxY
}

// hpwl returns the total half-perimeter wirelength over all nets at the
// design's current positions, summed in net order.
func (c *Compact) hpwl() float64 {
	c.pos.Gather(c.d)
	var sum float64
	for n := 0; n < len(c.NetStart)-1; n++ {
		sum += c.NetHPWL(&c.pos, n)
	}
	return sum
}
