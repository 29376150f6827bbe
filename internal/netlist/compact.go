package netlist

import (
	"fmt"
	"math"
)

// Compact is the flat struct-of-arrays/CSR view of a design's connectivity,
// built once per topology and consumed by the hot paths (HPWL, WirelenCache,
// the global placer's system assembly). Where the pointer API walks
// *Net -> []PinRef -> *Instance -> *Master -> map lookup per pin, the compact
// view resolves every pin once at build time into three parallel arrays —
// owning instance (or port), and the pin's X/Y offset from the instance
// origin — so inner loops touch contiguous int32/float64 memory only.
//
// Index conventions:
//   - Net n's pins occupy PinInst/PinDX/PinDY[NetStart[n]:NetStart[n+1]],
//     in the net's pin order.
//   - PinInst[k] >= 0 is an instance ID; PinInst[k] < 0 encodes the port
//     with index -1-PinInst[k]; PinInst[k] == CompactNoPort marks a pin
//     reference naming an unknown port (PinPos convention: position (0,0)).
//   - Instance i's distinct incident nets occupy
//     InstNets[InstStart[i]:InstStart[i+1]] in ascending net-ID order, each
//     net once however many of its pins the instance owns.
//
// A Compact is a topology snapshot: it stays valid while only positions
// (Instance.X/Y, Port.X/Y) change. Any mutation through AddInstance, AddNet,
// AddPort, Connect, or InvalidateConnectivity retires it; the next
// Design.Compact() call rebuilds. Offsets are resolved with PinPos's rule —
// the master pin offset when either component is nonzero, otherwise the cell
// center — so a position computed as origin+offset is bit-identical to
// PinPos.
type Compact struct {
	d   *Design
	gen uint64

	// Net -> pin CSR.
	NetStart []int32
	PinInst  []int32
	PinDX    []float64
	PinDY    []float64
	// PinMP[k] is the master-pin index of pin k within its instance's master
	// (Master.PinIndex), or -1 for port pins and unknown instance pins.
	PinMP []int32

	// NetDrv[n] is the pin slot (index into PinInst) of net n's driver under
	// Design.Driver's rule — first instance pin whose master pin is an output,
	// else first pin naming an input port — or -1 for undriven nets.
	NetDrv []int32

	// Instance -> distinct incident nets CSR.
	InstStart []int32
	InstNets  []int32

	// Position gather scratch for HPWL (origins per instance, absolute per
	// port). Owned by the compact view: HPWL overwrites it on
	// entry, so concurrent HPWL calls must not share one Compact.
	instX, instY []float64
	portX, portY []float64
}

// CompactNoPort marks a pin reference naming a port that does not exist in
// the design. PinPos resolves such references to (0, 0); the compact view
// preserves that convention.
const CompactNoPort int32 = -1 << 31

// NumNetPins returns the pin count of net n, including port pins.
func (c *Compact) NumNetPins(n int) int {
	return int(c.NetStart[n+1] - c.NetStart[n])
}

// Compact returns the design's flat connectivity view, building it on first
// use and after every topology mutation. The build is O(pins) and the result
// is cached, so repeated calls between mutations are free. A design whose
// total pin count exceeds math.MaxInt32 cannot be represented and panics;
// size-checked callers (the flow boundary) use CompactChecked instead.
func (d *Design) Compact() *Compact {
	c, err := d.CompactChecked()
	if err != nil {
		panic(err) //ppalint:ignore nopanic must-style wrapper over CompactChecked for pre-sized callers, matching designs' must/mustAdd idiom
	}
	return c
}

// CompactChecked is Compact with the pin-count capacity check surfaced as an
// error instead of a panic: the int32 CSR cannot index more than
// math.MaxInt32 pins, and past that bound truncation would silently corrupt
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
	c.PinDX = make([]float64, 0, nPins)
	c.PinDY = make([]float64, 0, nPins)
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
				if pi := d.PortIndex(p.Pin); pi >= 0 {
					id = -1 - int32(pi)
					if portDrvSlot < 0 && d.Ports[pi].Dir == DirInput {
						portDrvSlot = slot
					}
				} else {
					id = CompactNoPort
				}
			} else {
				id = int32(p.Inst)
				m := d.Insts[p.Inst].Master
				if i := m.PinIndex(p.Pin); i >= 0 {
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
				} else {
					dx, dy = m.Width/2, m.Height/2
				}
			}
			c.PinInst = append(c.PinInst, id)
			c.PinDX = append(c.PinDX, dx)
			c.PinDY = append(c.PinDY, dy)
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

// gatherPositions snapshots instance origins and port coordinates into the
// contiguous scratch arrays the HPWL kernels index.
func (c *Compact) gatherPositions() {
	d := c.d
	if len(c.instX) != len(d.Insts) {
		c.instX = make([]float64, len(d.Insts))
		c.instY = make([]float64, len(d.Insts))
	}
	for i, inst := range d.Insts {
		c.instX[i] = inst.X
		c.instY[i] = inst.Y
	}
	if len(c.portX) != len(d.Ports) {
		c.portX = make([]float64, len(d.Ports))
		c.portY = make([]float64, len(d.Ports))
	}
	for i, p := range d.Ports {
		c.portX[i] = p.X
		c.portY[i] = p.Y
	}
}

// pinXY resolves pin k against position arrays (instance origins instX/instY,
// absolute port coordinates portX/portY). The arithmetic — origin plus
// precomputed offset — matches PinPos bit for bit.
func (c *Compact) pinXY(k int32, instX, instY, portX, portY []float64) (float64, float64) {
	id := c.PinInst[k]
	if id >= 0 {
		return instX[id] + c.PinDX[k], instY[id] + c.PinDY[k]
	}
	if id == CompactNoPort {
		return 0, 0
	}
	return portX[-1-id], portY[-1-id]
}

// netHPWL computes net n's half-perimeter wirelength over the given position
// arrays with the same comparison structure as Design.NetHPWL, so the result
// is bit-identical to it.
func (c *Compact) netHPWL(n int, instX, instY, portX, portY []float64) float64 {
	lo, hi := c.NetStart[n], c.NetStart[n+1]
	if hi-lo < 2 {
		return 0
	}
	minX, minY := 1e308, 1e308
	maxX, maxY := -1e308, -1e308
	for k := lo; k < hi; k++ {
		x, y := c.pinXY(k, instX, instY, portX, portY)
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

// hpwl returns the total half-perimeter wirelength over all nets, summed in
// net order. Per-net values and the total are bit-identical to the pointer
// API (Design.NetHPWL summed in net order).
func (c *Compact) hpwl() float64 {
	c.gatherPositions()
	var sum float64
	for n := 0; n < len(c.NetStart)-1; n++ {
		sum += c.netHPWL(n, c.instX, c.instY, c.portX, c.portY)
	}
	return sum
}
