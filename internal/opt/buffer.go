// Package opt provides post-placement netlist optimizations, the stand-in
// for the opt_design / place_opt steps commercial flows run between
// placement and routing. Currently: buffer insertion on long or overloaded
// nets, the highest-leverage timing fix at this stage.
package opt

import (
	"fmt"
	"sort"

	"ppaclust/internal/netlist"
)

// BufferOptions configures buffer insertion.
type BufferOptions struct {
	// BufMaster is the buffer cell to insert. Required.
	BufMaster *netlist.Master
	// MaxWireLength triggers insertion when a driver-to-sink span exceeds
	// it (microns). Default: 1/3 of the core half-perimeter.
	MaxWireLength float64
	// MaxFanout triggers insertion when a net drives more sinks. Default 24.
	MaxFanout int
	// MaxBuffers bounds total insertions. Default 5% of instance count.
	MaxBuffers int
}

func (o BufferOptions) withDefaults(d *netlist.Design) BufferOptions {
	if o.MaxWireLength <= 0 {
		o.MaxWireLength = (d.Core.W() + d.Core.H()) / 6
		// Below ~60um a buffer's intrinsic delay exceeds the wire it saves.
		if o.MaxWireLength < 60 {
			o.MaxWireLength = 60
		}
	}
	if o.MaxFanout <= 0 {
		o.MaxFanout = 24
	}
	if o.MaxBuffers <= 0 {
		o.MaxBuffers = len(d.Insts)/20 + 1
	}
	return o
}

// BufferReport summarizes an insertion pass.
type BufferReport struct {
	Inserted    int
	NetsTouched int
}

// InsertBuffers splits long/high-fanout signal nets by inserting buffers at
// the centroid of the far sink group. Clock nets and nets without an
// instance driver are skipped. The design is modified in place; inserted
// buffers are placed (unlegalized) at their target location — run the
// legalizer afterwards.
func InsertBuffers(d *netlist.Design, opt BufferOptions) (BufferReport, error) {
	opt = opt.withDefaults(d)
	var rep BufferReport
	if opt.BufMaster == nil {
		return rep, fmt.Errorf("opt: BufMaster is required")
	}
	bufIn, bufOut := bufferPins(opt.BufMaster)
	if bufIn == "" || bufOut == "" {
		return rep, fmt.Errorf("opt: %s is not a buffer (need 1 input, 1 output)", opt.BufMaster.Name)
	}

	// Snapshot net IDs first: we append nets while iterating.
	numNets := len(d.Nets)
	for netID := 0; netID < numNets && rep.Inserted < opt.MaxBuffers; netID++ {
		n := d.Nets[netID]
		if n.Clock {
			continue
		}
		drv, ok := d.Driver(n)
		if !ok || drv.IsPort() {
			continue
		}
		dx, dy := d.PinPos(drv)
		// Collect sinks beyond the wirelength threshold.
		type sink struct {
			pr   netlist.PinRef
			dist float64
			x, y float64
		}
		var far []sink
		sinks := 0
		for _, pr := range n.Pins {
			if pr == drv {
				continue
			}
			if pr.IsPort() {
				continue // keep port connections on the original net
			}
			mp := d.Insts[pr.Inst].Master.Pin(pr.Pin)
			if mp == nil || mp.Dir != netlist.DirInput {
				continue
			}
			sinks++
			x, y := d.PinPos(pr)
			dist := abs(x-dx) + abs(y-dy)
			if dist > opt.MaxWireLength {
				far = append(far, sink{pr, dist, x, y})
			}
		}
		overFanout := sinks > opt.MaxFanout
		if len(far) == 0 && !overFanout {
			continue
		}
		if len(far) == 0 && overFanout {
			// Split the farthest half of the sinks.
			for _, pr := range n.Pins {
				if pr == drv || pr.IsPort() {
					continue
				}
				mp := d.Insts[pr.Inst].Master.Pin(pr.Pin)
				if mp == nil || mp.Dir != netlist.DirInput {
					continue
				}
				x, y := d.PinPos(pr)
				far = append(far, sink{pr, abs(x-dx) + abs(y-dy), x, y})
			}
			sort.Slice(far, func(i, j int) bool { return far[i].dist > far[j].dist })
			far = far[:len(far)/2]
		}
		if len(far) == 0 {
			continue
		}
		// Buffer at the centroid of the far group.
		var cx, cy float64
		for _, s := range far {
			cx += s.x
			cy += s.y
		}
		cx /= float64(len(far))
		cy /= float64(len(far))
		buf, err := d.AddInstance(fmt.Sprintf("%s_buf%d", n.Name, rep.Inserted), opt.BufMaster)
		if err != nil {
			return rep, err
		}
		buf.X = clamp(cx-opt.BufMaster.Width/2, d.Core.X0, d.Core.X1-opt.BufMaster.Width)
		buf.Y = clamp(cy-opt.BufMaster.Height/2, d.Core.Y0, d.Core.Y1-opt.BufMaster.Height)
		buf.Placed = true
		// New net from buffer output to the far sinks.
		newNet, err := d.AddNet(fmt.Sprintf("%s_bufnet%d", n.Name, rep.Inserted))
		if err != nil {
			return rep, err
		}
		newNet.Weight = n.Weight
		d.Connect(newNet, netlist.PinRef{Inst: buf.ID, Pin: bufOut})
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
		n.Pins = append(kept, netlist.PinRef{Inst: buf.ID, Pin: bufIn})
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
