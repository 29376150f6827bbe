// Package viz renders placements as standalone SVG files — the quick visual
// sanity check every placement tool ships with.
package viz

import (
	"bufio"
	"fmt"
	"io"

	"ppaclust/internal/netlist"
)

// Options controls rendering.
type Options struct {
	// DrawNets draws flylines for nets with at most this many pins
	// (0 disables flylines).
	DrawNets int
}

// widthPX is the output image width in pixels (height follows the die
// aspect ratio).
const widthPX = 800.0

// WritePlacement renders the design's die, core, macros, cells and ports.
// Output goes through one buffer, and the first failed write is the error
// returned.
func WritePlacement(out io.Writer, d *netlist.Design, opt Options) error {
	if d.Die.W() <= 0 || d.Die.H() <= 0 {
		return fmt.Errorf("viz: design has no die area")
	}
	w := bufio.NewWriterSize(out, 64<<10)
	s := widthPX / d.Die.W()
	hPX := d.Die.H() * s
	// SVG y grows downward; chip y grows upward.
	x := func(v float64) float64 { return (v - d.Die.X0) * s }
	y := func(v float64) float64 { return hPX - (v-d.Die.Y0)*s }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		widthPX, hPX, widthPX, hPX)
	fmt.Fprintf(w, `<rect width="100%%" height="100%%" fill="#10131a"/>`+"\n")
	// Core outline.
	fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#3a4356" stroke-width="1"/>`+"\n",
		x(d.Core.X0), y(d.Core.Y1), d.Core.W()*s, d.Core.H()*s)
	// Cells.
	for _, inst := range d.Insts {
		if !inst.Placed && !inst.Fixed {
			continue
		}
		fill := "#4f8fdd"
		if inst.Master.Class == netlist.ClassMacro {
			fill = "#b5651d"
		} else if inst.Fixed {
			fill = "#888888"
		}
		cw := inst.Master.Width * s
		ch := inst.Master.Height * s
		if cw < 0.6 {
			cw = 0.6
		}
		if ch < 0.6 {
			ch = 0.6
		}
		fmt.Fprintf(w, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="0.75"/>`+"\n",
			x(inst.X), y(inst.Y+inst.Master.Height), cw, ch, fill)
	}
	// Flylines.
	if opt.DrawNets > 0 {
		for _, n := range d.Nets {
			if len(n.Pins) < 2 || len(n.Pins) > opt.DrawNets {
				continue
			}
			px, py := d.PinPos(n.Pins[0])
			for _, pr := range n.Pins[1:] {
				qx, qy := d.PinPos(pr)
				fmt.Fprintf(w, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#5fd068" stroke-width="0.4" stroke-opacity="0.35"/>`+"\n",
					x(px), y(py), x(qx), y(qy))
			}
		}
	}
	// Ports.
	for _, p := range d.Ports {
		if !p.Placed {
			continue
		}
		fmt.Fprintf(w, `<circle cx="%.2f" cy="%.2f" r="2.5" fill="#e8c547"/>`+"\n", x(p.X), y(p.Y))
	}
	fmt.Fprintln(w, `</svg>`)
	return w.Flush()
}
