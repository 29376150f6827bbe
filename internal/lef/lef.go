// Package lef reads and writes the LEF subset that carries the physical
// view the flow needs: macro class, size, and pin directions/offsets. It is
// also used to emit the cluster .lef models that Algorithm 1 line 13
// produces for seeded placement.
package lef

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// maxDimUM bounds every parsed dimension (sizes, pin offsets) in microns.
// Larger magnitudes are input corruption and would destabilize the %.4f
// writer round trip.
const maxDimUM = 1e8

// Write emits the physical view of every master in the library. Output goes
// through one buffer, and the first failed write is the error returned.
func Write(out io.Writer, lib *netlist.Library) error {
	w := bufio.NewWriterSize(out, 64<<10)
	fmt.Fprintf(w, "VERSION 5.8 ;\nBUSBITCHARS \"[]\" ;\nDIVIDERCHAR \"/\" ;\n\n")
	for _, name := range lib.MasterNames() {
		writeMacro(w, lib.Master(name))
	}
	fmt.Fprintln(w, "END LIBRARY")
	return w.Flush()
}

// writeMacro emits one MACRO block.
func writeMacro(w io.Writer, m *netlist.Master) {
	class := "CORE"
	switch m.Class {
	case netlist.ClassMacro:
		class = "BLOCK"
	case netlist.ClassPad:
		class = "PAD"
	}
	fmt.Fprintf(w, "MACRO %s\n  CLASS %s ;\n  SIZE %.4f BY %.4f ;\n", m.Name, class, m.Width, m.Height)
	for i := range m.Pins {
		p := &m.Pins[i]
		dir := "INPUT"
		switch p.Dir {
		case netlist.DirOutput:
			dir = "OUTPUT"
		case netlist.DirInout:
			dir = "INOUT"
		}
		fmt.Fprintf(w, "  PIN %s\n    DIRECTION %s ;\n", p.Name, dir)
		if p.Clock {
			fmt.Fprintf(w, "    USE CLOCK ;\n")
		}
		if p.OffsetX != 0 || p.OffsetY != 0 {
			fmt.Fprintf(w, "    ORIGIN %.4f %.4f ;\n", p.OffsetX, p.OffsetY)
		}
		fmt.Fprintf(w, "  END %s\n", p.Name)
	}
	fmt.Fprintf(w, "END %s\n\n", m.Name)
}

// Options configures a parse.
type Options struct {
	// File names the input in errors; defaults to "lef".
	File string
	// Lenient tolerates recoverable field errors — malformed SIZE or ORIGIN
	// values, keyword lines without an argument — by skipping the field and
	// recording a warning. Structural errors (MACRO without a name,
	// attributes outside their block) are fatal in both modes.
	Lenient bool
}

// ParseWith reads MACRO blocks into the given library, creating masters that
// do not exist and updating geometry of those that do (the usual
// liberty-then-lef load order). It returns the names of the macros read.
// Strict parsing (the zero Options) makes every malformed field a
// *scan.ParseError; in lenient mode the returned warnings list the fields
// that were skipped.
func ParseWith(r io.Reader, lib *netlist.Library, o Options) ([]string, []*scan.ParseError, error) {
	file := o.File
	if file == "" {
		file = "lef"
	}
	p := &lefParser{lib: lib}
	if o.Lenient {
		p.warns = &scan.Warnings{}
	}
	sc := scan.NewScanner(r, file, 1024*1024)
	for sc.Scan() {
		if err := p.line(sc.Line()); err != nil {
			return nil, p.warns.List(), err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, p.warns.List(), err
	}
	return p.names, p.warns.List(), nil
}

type lefParser struct {
	lib   *netlist.Library
	names []string
	m     *netlist.Master
	pin   *netlist.MasterPin
	warns *scan.Warnings // nil in strict mode
}

// quant snaps a micron value to the writer's %.4f grid, so re-emission is
// an exact inverse of parsing (a sub-grid offset would otherwise flip the
// "offset is zero" test between cycles).
func quant(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// dim parses field i as a dimension in microns, within [0, maxDimUM].
func (p *lefParser) dim(ln *scan.Line, i int) (float64, error) {
	v, err := ln.Float(i)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > maxDimUM {
		return 0, ln.Errf(ln.Tok(i), "dimension out of range [0, %g]", float64(maxDimUM))
	}
	return quant(v), nil
}

// offset parses field i as a signed pin offset in microns.
func (p *lefParser) offset(ln *scan.Line, i int) (float64, error) {
	v, err := ln.Float(i)
	if err != nil {
		return 0, err
	}
	if v < -maxDimUM || v > maxDimUM {
		return 0, ln.Errf(ln.Tok(i), "offset out of range")
	}
	return quant(v), nil
}

func (p *lefParser) line(ln *scan.Line) error {
	switch ln.Tok(0) {
	case "MACRO":
		if err := ln.Require(2); err != nil {
			return err
		}
		if ex := p.lib.Master(ln.Tok(1)); ex != nil {
			p.m = ex
		} else {
			p.m = &netlist.Master{Name: ln.Tok(1)}
			if err := p.lib.AddMaster(p.m); err != nil {
				return ln.Errf(ln.Tok(1), "%v", err)
			}
		}
		p.names = append(p.names, ln.Tok(1))
		p.pin = nil
	case "CLASS":
		if p.m == nil {
			return ln.Errf(ln.Tok(0), "CLASS outside MACRO")
		}
		if err := ln.Require(2); err != nil {
			return p.warns.Tolerate(err)
		}
		switch ln.Tok(1) {
		case "BLOCK":
			p.m.Class = netlist.ClassMacro
		case "PAD":
			p.m.Class = netlist.ClassPad
		default:
			p.m.Class = netlist.ClassCore
		}
	case "SIZE":
		if p.m == nil {
			return ln.Errf(ln.Tok(0), "SIZE outside MACRO")
		}
		if err := p.size(ln); err != nil {
			return p.warns.Tolerate(err)
		}
	case "PIN":
		if p.m == nil {
			return ln.Errf(ln.Tok(0), "PIN outside MACRO")
		}
		if err := ln.Require(2); err != nil {
			return err
		}
		if i := p.m.PinIndex(ln.Tok(1)); i >= 0 {
			p.pin = &p.m.Pins[i]
		} else {
			p.pin = p.m.AddPin(netlist.MasterPin{Name: ln.Tok(1)})
		}
	case "DIRECTION":
		if p.pin == nil {
			return ln.Errf(ln.Tok(0), "DIRECTION outside PIN")
		}
		if err := ln.Require(2); err != nil {
			return p.warns.Tolerate(err)
		}
		switch ln.Tok(1) {
		case "OUTPUT":
			p.pin.Dir = netlist.DirOutput
		case "INOUT":
			p.pin.Dir = netlist.DirInout
		default:
			p.pin.Dir = netlist.DirInput
		}
	case "USE":
		if p.pin == nil {
			return nil // macro-level USE lines are outside the subset
		}
		if err := ln.Require(2); err != nil {
			return p.warns.Tolerate(err)
		}
		if ln.Tok(1) == "CLOCK" {
			p.pin.Clock = true
		}
	case "ORIGIN":
		if p.pin == nil {
			return ln.Errf(ln.Tok(0), "ORIGIN outside PIN")
		}
		if err := p.origin(ln); err != nil {
			return p.warns.Tolerate(err)
		}
	case "END":
		// Close the innermost open block first, so a pin that shares its
		// macro's name does not end the macro early.
		if ln.Len() >= 2 && p.pin != nil && ln.Tok(1) == p.pin.Name {
			p.pin = nil
		} else if ln.Len() >= 2 && p.m != nil && ln.Tok(1) == p.m.Name {
			p.m = nil
		}
	}
	return nil
}

func (p *lefParser) size(ln *scan.Line) error {
	if err := ln.Require(4); err != nil {
		return err
	}
	w, err := p.dim(ln, 1)
	if err != nil {
		return err
	}
	h, err := p.dim(ln, 3)
	if err != nil {
		return err
	}
	p.m.Width, p.m.Height = w, h
	return nil
}

func (p *lefParser) origin(ln *scan.Line) error {
	if err := ln.Require(3); err != nil {
		return err
	}
	x, err := p.offset(ln, 1)
	if err != nil {
		return err
	}
	y, err := p.offset(ln, 2)
	if err != nil {
		return err
	}
	p.pin.OffsetX, p.pin.OffsetY = x, y
	return nil
}
