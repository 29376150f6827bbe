// Package opt provides post-placement netlist optimizations, the stand-in
// for the opt_design / place_opt steps commercial flows run between
// placement and routing. Currently: buffer insertion on long or overloaded
// nets, the highest-leverage timing fix at this stage.
package opt

import (
	"fmt"
	"math"
	"sort"

	"ppaclust/internal/netlist"
)

// maxFanout triggers insertion when a net drives more sinks.
const maxFanout = 24

// BufferReport summarizes an insertion pass.
type BufferReport struct {
	Inserted    int
	NetsTouched int
}

// InsertBuffers splits long/high-fanout signal nets by inserting buffers at
// the centroid of the far sink group. Clock nets and nets without an
// instance driver are skipped. The design is modified in place; inserted
// buffers are placed (unlegalized) at their target location — run the
// legalizer afterwards. buf is the buffer cell to insert.
func InsertBuffers(d *netlist.Design, buf *netlist.Master) (BufferReport, error) {
	var rep BufferReport
	if buf == nil {
		return rep, fmt.Errorf("opt: a buffer master is required")
	}
	bufIn, bufOut := bufferPins(buf)
	if bufIn == "" || bufOut == "" {
		return rep, fmt.Errorf("opt: %s is not a buffer (need 1 input, 1 output)", buf.Name)
	}
	// A sink farther from its driver than maxWire microns moves behind a
	// buffer: a sixth of the core's width plus height, and at least 60 um,
	// below which a buffer's intrinsic delay exceeds the wire it saves. One
	// pass inserts at most maxBuf buffers, 5% of the instance count.
	maxWire := math.Max((d.Core.W()+d.Core.H())/6, 60)
	maxBuf := len(d.Insts)/20 + 1

	// One compact view and position snapshot, taken before any edit,
	// resolve every original net: an edit only moves far sinks of the net
	// at hand onto a new net and adds a buffer cell, so when the loop
	// reaches a later net its pins and their cells are as the snapshot saw
	// them. Nets appended while iterating are not visited.
	c := d.Compact()
	var pos netlist.Positions
	pos.Gather(d)
	type sink struct {
		pr   netlist.PinRef
		dist float64
		x, y float64
	}
	var sinks, far []sink
	numNets := len(d.Nets)
	for netID := 0; netID < numNets && rep.Inserted < maxBuf; netID++ {
		n := d.Nets[netID]
		kd := c.NetDrv[netID]
		if n.Clock || kd < 0 || c.PinInst[kd] < 0 {
			continue
		}
		lo, hi := c.NetStart[netID], c.NetStart[netID+1]
		drv := n.Pins[kd-lo]
		dx, dy := c.PinXY(&pos, kd)
		// Instance input sinks; port connections stay on the original net.
		sinks, far = sinks[:0], far[:0]
		for k := lo; k < hi; k++ {
			pr := n.Pins[k-lo]
			id := c.PinInst[k]
			if pr == drv || id < 0 || d.Insts[id].Master.Pins[c.PinMP[k]].Dir != netlist.DirInput {
				continue
			}
			x, y := c.PinXY(&pos, k)
			s := sink{pr, abs(x-dx) + abs(y-dy), x, y}
			sinks = append(sinks, s)
			if s.dist > maxWire {
				far = append(far, s)
			}
		}
		if len(far) == 0 {
			if len(sinks) <= maxFanout {
				continue
			}
			// Split the farthest half of the sinks.
			far = append(far, sinks...)
			sort.Slice(far, func(i, j int) bool { return far[i].dist > far[j].dist })
			far = far[:len(far)/2]
		}
		// Buffer at the centroid of the far group.
		var cx, cy float64
		for _, s := range far {
			cx += s.x
			cy += s.y
		}
		cx /= float64(len(far))
		cy /= float64(len(far))
		bi, err := d.AddInstance(fmt.Sprintf("%s_buf%d", n.Name, rep.Inserted), buf)
		if err != nil {
			return rep, err
		}
		bi.X = clamp(cx-buf.Width/2, d.Core.X0, d.Core.X1-buf.Width)
		bi.Y = clamp(cy-buf.Height/2, d.Core.Y0, d.Core.Y1-buf.Height)
		bi.Placed = true
		// New net from buffer output to the far sinks.
		newNet, err := d.AddNet(fmt.Sprintf("%s_bufnet%d", n.Name, rep.Inserted))
		if err != nil {
			return rep, err
		}
		newNet.Weight = n.Weight
		d.Connect(newNet, netlist.PinRef{Inst: bi.ID, Pin: bufOut})
		farSet := map[netlist.PinRef]bool{}
		for _, s := range far {
			farSet[s.pr] = true
			d.Connect(newNet, s.pr)
		}
		// Remove the far sinks from the original net, add the buffer input.
		kept := n.Pins[:0]
		for _, pr := range n.Pins {
			if !farSet[pr] {
				kept = append(kept, pr)
			}
		}
		n.Pins = append(kept, netlist.PinRef{Inst: bi.ID, Pin: bufIn})
		// The pin list was rewired in place, bypassing Connect — retire the
		// cached connectivity views.
		d.InvalidateConnectivity()
		rep.Inserted++
		rep.NetsTouched++
	}
	return rep, nil
}

// bufferPins identifies the single input and output pin of a buffer master.
func bufferPins(m *netlist.Master) (in, out string) {
	for i := range m.Pins {
		switch m.Pins[i].Dir {
		case netlist.DirInput:
			if in != "" {
				return "", ""
			}
			in = m.Pins[i].Name
		case netlist.DirOutput:
			if out != "" {
				return "", ""
			}
			out = m.Pins[i].Name
		}
	}
	return in, out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func clamp(v, lo, hi float64) float64 {
	if hi < lo {
		return lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
