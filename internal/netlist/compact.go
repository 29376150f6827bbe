package netlist

import (
	"fmt"
	"math"
)

// Compact is the flat struct-of-arrays/CSR view of a design's connectivity,
// built once by Builder.Build and consumed by the hot paths (HPWL,
// WirelenCache, the global placer's system assembly, STA, routing, CTS).
// Where the pointer API walks *Net -> []PinRef -> *Instance -> *Master per
// pin, the compact view flattens every pin once into parallel arrays —
// owning instance (or port), master pin, and the pin's X/Y offset from the
// instance origin — so inner loops touch contiguous int32/float64 memory
// only. The readers have already turned pin names into indices (PinRefOf);
// Build only checks them.
//
// Index conventions:
//   - Net n's pins occupy PinInst/PinMP[NetStart[n]:NetStart[n+1]], in the
//     net's pin order. Net n's Pins is the same slots of one flat []PinRef,
//     so slot k names one pin in both.
//   - PinInst[k] >= 0 is an instance ID; PinInst[k] < 0 encodes the port
//     with index -1-PinInst[k].
//   - Instance i's distinct incident nets occupy
//     InstNets[InstStart[i]:InstStart[i+1]] in ascending net-ID order, each
//     net once however many of its pins the instance owns.
//
// A Compact holds topology only and is never modified: positions live in
// the design (gathered into a Positions to read), so one Compact serves a
// design and all its clones, on any number of goroutines. An instance pin's
// offset is the master pin offset when either component is nonzero,
// otherwise the cell center; PinXY adds it to the instance origin.
type Compact struct {
	// Net -> pin CSR.
	NetStart []int32
	PinInst  []int32
	// PinMP[k] is the master-pin index of pin k within its instance's master
	// (PinRef.Pin), or -1 for port pins.
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

// Compact returns the design's flat connectivity view, which Build made.
func (d *Design) Compact() *Compact { return d.compact }

// CompactChecked is Compact with a nil error, as Build has made its checks;
// kept for frozen benchmark/replay.go (the reader fuzz targets call it too).
func (d *Design) CompactChecked() (*Compact, error) { return d.compact, nil }

// Build checks every recorded pin, lays the pins out net by net and builds
// the Compact view on the same slot numbering, and returns the finished
// design, b.Design. A pin whose port, instance or master pin is out of
// range is an error naming its net, and so is a pin count beyond the
// math.MaxInt32 the int32 CSR can index, past which truncation would
// silently corrupt connectivity.
func (b *Builder) Build() (*Design, error) {
	d := b.Design
	nPins := 0
	for _, chunk := range b.conns {
		nPins += len(chunk)
	}
	// Every int32 below — pin slots, net ids, instance ids — is bounded by
	// nPins or by a count it dominates, so this single check covers the
	// build's conversions.
	if nPins > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: design has %d pins, beyond the %d the int32 compact CSR can index", nPins, math.MaxInt32)
	}
	// Counting sort by net: net n's pins, in Connect order, take the slots
	// NetStart[n]:NetStart[n+1] of one flat array, which Net.Pins slices
	// with their capacity capped, so an append to one net's pins copies
	// instead of overwriting the next net's.
	c := &Compact{NetStart: make([]int32, len(d.Nets)+1)}
	for _, chunk := range b.conns {
		for _, cn := range chunk {
			c.NetStart[cn.net+1]++
		}
	}
	for n := range d.Nets {
		c.NetStart[n+1] += c.NetStart[n]
	}
	flat := make([]PinRef, nPins)
	fill := make([]int32, len(d.Nets))
	copy(fill, c.NetStart)
	for _, chunk := range b.conns {
		for _, cn := range chunk {
			flat[fill[cn.net]] = cn.ref
			fill[cn.net]++
		}
	}
	b.insts, b.nets, b.ports, b.conns = nil, nil, nil, nil

	c.PinInst = make([]int32, nPins)
	c.PinMP = make([]int32, nPins)
	c.pinDX = make([]float64, nPins)
	c.pinDY = make([]float64, nPins)
	c.NetDrv = make([]int32, len(d.Nets))
	// deg counts each instance's distinct nets; lastNet holds 1 + the last
	// net counted on it.
	deg := make([]int32, len(d.Insts))
	lastNet := make([]int32, len(d.Insts))
	for ni, n := range d.Nets {
		lo, hi := c.NetStart[ni], c.NetStart[ni+1]
		n.Pins = flat[lo:hi:hi]
		drvSlot := int32(-1)     // first output instance pin
		portDrvSlot := int32(-1) // first input-port pin (fallback)
		for k := lo; k < hi; k++ {
			p := flat[k]
			if p.IsPort() {
				if p.Pin < 0 || p.Pin >= len(d.Ports) {
					return nil, fmt.Errorf("netlist: net %q references port %d of %d", n.Name, p.Pin, len(d.Ports))
				}
				c.PinInst[k] = -1 - int32(p.Pin)
				c.PinMP[k] = -1
				if portDrvSlot < 0 && d.Ports[p.Pin].Dir == DirInput {
					portDrvSlot = k
				}
				continue
			}
			if p.Inst >= len(d.Insts) {
				return nil, fmt.Errorf("netlist: net %q references instance %d of %d", n.Name, p.Inst, len(d.Insts))
			}
			inst := d.Insts[p.Inst]
			m := inst.Master
			if p.Pin < 0 || p.Pin >= len(m.Pins) {
				return nil, fmt.Errorf("netlist: net %q references pin %d of %s, whose master %s has %d", n.Name, p.Pin, inst.Name, m.Name, len(m.Pins))
			}
			c.PinInst[k] = int32(p.Inst)
			c.PinMP[k] = int32(p.Pin)
			mp := &m.Pins[p.Pin]
			if mp.OffsetX != 0 || mp.OffsetY != 0 {
				c.pinDX[k], c.pinDY[k] = mp.OffsetX, mp.OffsetY
			} else {
				c.pinDX[k], c.pinDY[k] = m.Width/2, m.Height/2
			}
			if drvSlot < 0 && mp.Dir == DirOutput {
				drvSlot = k
			}
			if lastNet[p.Inst] != int32(ni)+1 {
				lastNet[p.Inst] = int32(ni) + 1
				deg[p.Inst]++
			}
		}
		if drvSlot >= 0 {
			c.NetDrv[ni] = drvSlot
		} else {
			c.NetDrv[ni] = portDrvSlot
		}
	}

	// Instance -> net CSR: prefix-sum the counts, then fill in net order,
	// which leaves each instance's nets ascending, so the last net filled
	// for an instance tells whether it holds the current one already.
	c.InstStart = make([]int32, len(d.Insts)+1)
	for i, dg := range deg {
		c.InstStart[i+1] = c.InstStart[i] + dg
	}
	c.InstNets = make([]int32, c.InstStart[len(d.Insts)])
	fill = deg // each instance's next free entry
	copy(fill, c.InstStart)
	for ni := range d.Nets {
		for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
			id := c.PinInst[k]
			if id >= 0 && (fill[id] == c.InstStart[id] || c.InstNets[fill[id]-1] != int32(ni)) {
				c.InstNets[fill[id]] = int32(ni)
				fill[id]++
			}
		}
	}
	d.compact = c
	return d, nil
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
