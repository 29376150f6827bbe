// Package def reads and writes the DEF subset carrying the floorplan view:
// die area, placed/fixed components, pin locations, and net connectivity.
// Coordinates are stored in DEF database units (microns x 1000).
package def

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

const dbu = 1000.0 // database units per micron

// Parse-time sanity bounds. Out-of-range geometry is rejected in both modes:
// a kilometer-scale coordinate is input corruption, and keeping magnitudes
// below maxCoordUM keeps every derived database-unit value exactly
// representable in float64 (|um|*dbu < 2^53), so write->read->write is a
// fixpoint.
const (
	maxCoordUM  = 1e9 // microns
	maxRowCount = 1e9 // ROW DO/BY repeat counts
	maxWeight   = 1e9 // NET WEIGHT magnitude
	minUnits    = 1   // UNITS DISTANCE MICRONS range
	maxUnits    = 1e6
)

// maxLine bounds the longest line the reader accepts. A net line carries
// every pin of the net, and the clock net of a 1M-cell design written by
// Write runs to ~5 MB; the bound only keeps hostile input finite.
const maxLine = 256 << 20

// lineFlush bounds the reused line buffer: a net line longer than this goes
// to the output pin by pin, so a high-fanout net does not grow the buffer.
const lineFlush = 4 << 10

// Write emits the design's floorplan and netlist as DEF. Output goes through
// one buffer, and the first failed write is the error returned.
func Write(w io.Writer, d *netlist.Design) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS %d ;\n", d.Name, int(dbu))
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n",
		du(d.Die.X0), du(d.Die.Y0), du(d.Die.X1), du(d.Die.Y1))
	// A single summary ROW carries the core box and site geometry. The site
	// counts round to the nearest integer so that a parsed core box (X1 =
	// X0 + count*step) survives re-emission unchanged.
	if d.Core.Area() > 0 && d.RowHeight > 0 && d.SiteWidth > 0 {
		nSites := int(d.Core.W()/d.SiteWidth + 0.5)
		nRows := int(d.Core.H()/d.RowHeight + 0.5)
		fmt.Fprintf(bw, "ROW CORE_AREA coresite %d %d N DO %d BY %d STEP %d %d ;\n",
			du(d.Core.X0), du(d.Core.Y0), nSites, nRows, du(d.SiteWidth), du(d.RowHeight))
	}
	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Insts))
	line := make([]byte, 0, 2*lineFlush)
	for _, inst := range d.Insts {
		line = appendEscaped(append(line[:0], "- "...), inst.Name)
		line = append(append(line, ' '), inst.Master.Name...)
		switch {
		case inst.Fixed:
			line = append(line, " + FIXED"...)
		case inst.Placed:
			line = append(line, " + PLACED"...)
		default:
			line = append(line, " + UNPLACED"...)
		}
		if inst.Placed || inst.Fixed {
			line = appendPoint(line, inst.X, inst.Y)
		}
		bw.Write(append(line, " ;\n"...))
	}
	fmt.Fprintln(bw, "END COMPONENTS")
	fmt.Fprintf(bw, "PINS %d ;\n", len(d.Ports))
	for _, p := range d.Ports {
		dir := "INPUT"
		switch p.Dir {
		case netlist.DirOutput:
			dir = "OUTPUT"
		case netlist.DirInout:
			dir = "INOUT"
		}
		line = appendEscaped(append(line[:0], "- "...), p.Name)
		line = appendEscaped(append(line, " + NET "...), p.Name)
		line = append(append(line, " + DIRECTION "...), dir...)
		if p.Placed {
			line = appendPoint(append(line, " + PLACED"...), p.X, p.Y)
		}
		bw.Write(append(line, " ;\n"...))
	}
	fmt.Fprintln(bw, "END PINS")
	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		line = appendEscaped(append(line[:0], "- "...), n.Name)
		for _, pr := range n.Pins {
			if pr.IsPort() {
				line = appendEscaped(append(line, " ( PIN "...), d.PinName(pr))
			} else {
				line = appendEscaped(append(line, " ( "...), d.Insts[pr.Inst].Name)
				line = append(append(line, ' '), d.PinName(pr)...)
			}
			line = append(line, " )"...)
			if len(line) > lineFlush {
				bw.Write(line)
				line = line[:0]
			}
		}
		if n.Weight != 1 {
			line = strconv.AppendInt(append(line, " + WEIGHT "...), int64(n.Weight), 10)
		}
		if n.Clock {
			line = append(line, " + USE CLOCK"...)
		}
		bw.Write(append(line, " ;\n"...))
	}
	fmt.Fprintln(bw, "END NETS")
	fmt.Fprintln(bw, "END DESIGN")
	return bw.Flush()
}

// du converts microns to database units, rounding half away from zero so
// negative coordinates round symmetrically (truncation would drift one unit
// per write/read cycle).
func du(v float64) int { return int(math.Round(v * dbu)) }

// appendPoint appends " ( x y ) N", the location and orientation of a placed
// component or pin, in database units.
func appendPoint(b []byte, x, y float64) []byte {
	b = strconv.AppendInt(append(b, " ( "...), int64(du(x)), 10)
	b = strconv.AppendInt(append(b, ' '), int64(du(y)), 10)
	return append(b, " ) N"...)
}

// appendEscaped appends s with the spaces DEF treats as separators inside
// names replaced by '_'.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ' ' {
			b = append(b, '_')
		} else {
			b = append(b, c)
		}
	}
	return b
}

// Options configures a parse.
type Options struct {
	// File names the input in errors; defaults to "def".
	File string
	// Lenient tolerates recoverable field errors — bad placement
	// coordinates, malformed ROW/DIEAREA geometry, unparsable net weights —
	// by skipping the field and recording a warning. Structural errors
	// (unknown masters or instances, repeated COMPONENTS, PINS or NETS
	// names, missing DESIGN, corrupt UNITS) are fatal in both modes.
	Lenient bool
}

// ParseWith reads DEF into a new design bound to lib. Strict parsing (the
// zero Options) makes every malformed field a *scan.ParseError; in lenient
// mode the returned warnings list the fields that were skipped.
func ParseWith(r io.Reader, lib *netlist.Library, o Options) (*netlist.Design, []*scan.ParseError, error) {
	file := o.File
	if file == "" {
		file = "def"
	}
	p := &defParser{
		lib: lib, units: dbu,
		insts: map[string]int{}, ports: map[string]int{}, nets: map[string]struct{}{},
	}
	if o.Lenient {
		p.warns = &scan.Warnings{}
	}
	sc := scan.NewScanner(r, file, maxLine)
	for sc.Scan() {
		if err := p.line(sc.Line()); err != nil {
			return nil, p.warns.List(), err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, p.warns.List(), err
	}
	if p.d == nil {
		return nil, p.warns.List(), scan.Errorf(file, 0, "", "no DESIGN statement")
	}
	d, err := p.d.Build()
	return d, p.warns.List(), err
}

type defParser struct {
	lib     *netlist.Library
	d       *netlist.Builder
	section string
	units   float64
	warns   *scan.Warnings // nil in strict mode

	// Name indices for the length of the parse (the design keeps none):
	// instance and port name to index, and the net names seen.
	insts, ports map[string]int
	nets         map[string]struct{}
}

func (p *defParser) line(ln *scan.Line) error {
	switch {
	case ln.Tok(0) == "DESIGN" && p.section == "":
		if err := ln.Require(2); err != nil {
			return err
		}
		if p.d != nil {
			return ln.Errf(ln.Tok(1), "duplicate DESIGN statement")
		}
		p.d = netlist.NewBuilder(ln.Tok(1), p.lib)
	case ln.Tok(0) == "UNITS":
		// Corrupt units rescale every coordinate in the file; fatal in both
		// modes.
		if err := ln.Require(4); err != nil {
			return err
		}
		v, err := ln.Float(3)
		if err != nil {
			return err
		}
		if v < minUnits || v > maxUnits {
			return ln.Errf(ln.Tok(3), "UNITS out of range [%g, %g]", float64(minUnits), float64(maxUnits))
		}
		p.units = v
	case ln.Tok(0) == "DIEAREA":
		if p.d == nil {
			return ln.Errf(ln.Tok(0), "DIEAREA before DESIGN")
		}
		nums, err := p.coords(ln, 1)
		if err == nil && len(nums) < 4 {
			err = ln.Errf(ln.Tok(0), "DIEAREA needs 4 coordinates, got %d", len(nums))
		}
		if err != nil {
			return p.warns.Tolerate(err)
		}
		p.d.Die = netlist.Rect{X0: nums[0], Y0: nums[1], X1: nums[2], Y1: nums[3]}
		p.d.Core = p.d.Die
	case ln.Tok(0) == "ROW":
		if p.d == nil {
			return ln.Errf(ln.Tok(0), "ROW before DESIGN")
		}
		if err := p.warns.Tolerate(p.row(ln)); err != nil {
			return err
		}
	case ln.Tok(0) == "COMPONENTS":
		p.section = "COMPONENTS"
	case ln.Tok(0) == "PINS":
		p.section = "PINS"
	case ln.Tok(0) == "NETS":
		p.section = "NETS"
	case ln.Tok(0) == "END":
		if ln.Len() >= 2 && ln.Tok(1) == p.section {
			p.section = ""
		}
	case ln.Tok(0) == "-":
		if p.d == nil {
			return ln.Errf(ln.Tok(0), "item before DESIGN")
		}
		switch p.section {
		case "COMPONENTS":
			return p.component(ln)
		case "PINS":
			return p.pin(ln)
		case "NETS":
			return p.net(ln)
		}
	}
	return nil
}

// coord parses one coordinate token into microns, applying the units scale
// and the geometry bound.
func (p *defParser) coord(ln *scan.Line, i int) (float64, error) {
	v, err := ln.Float(i)
	if err != nil {
		return 0, err
	}
	um := v / p.units
	if um < -maxCoordUM || um > maxCoordUM {
		return 0, ln.Errf(ln.Tok(i), "coordinate out of range (|%g| > %g um)", um, float64(maxCoordUM))
	}
	// Quantize to the database-unit grid: DEF coordinates are integral dbu,
	// and the grid makes the writer's du() rounding an exact inverse (a
	// sub-dbu step would otherwise collapse to zero on re-emission).
	return math.Round(um*dbu) / dbu, nil
}

// coords parses every token from index start as a coordinate, skipping the
// DEF punctuation "(", ")" and ";". A token that is neither punctuation nor
// a number is an error.
func (p *defParser) coords(ln *scan.Line, start int) ([]float64, error) {
	var out []float64
	for i := start; i < ln.Len(); i++ {
		switch ln.Tok(i) {
		case "(", ")", ";":
			continue
		}
		v, err := p.coord(ln, i)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// row parses "ROW name site x0 y0 orient DO nx BY ny STEP sw rh ;".
func (p *defParser) row(ln *scan.Line) error {
	if err := ln.Require(13); err != nil {
		return err
	}
	if ln.Tok(6) != "DO" || ln.Tok(8) != "BY" || ln.Tok(10) != "STEP" {
		return ln.Errf(ln.Tok(0), "ROW wants DO/BY/STEP at fields 7/9/11, got %q/%q/%q", ln.Tok(6), ln.Tok(8), ln.Tok(10))
	}
	x0, err := p.coord(ln, 3)
	if err != nil {
		return err
	}
	y0, err := p.coord(ln, 4)
	if err != nil {
		return err
	}
	nx, err := ln.Int(7)
	if err != nil {
		return err
	}
	ny, err := ln.Int(9)
	if err != nil {
		return err
	}
	if nx < 0 || ny < 0 || float64(nx) > maxRowCount || float64(ny) > maxRowCount {
		return ln.Errf(ln.Tok(7), "ROW repeat counts out of range [0, %g]", float64(maxRowCount))
	}
	sw, err := p.coord(ln, 11)
	if err != nil {
		return err
	}
	rh, err := p.coord(ln, 12)
	if err != nil {
		return err
	}
	if sw < 0 || rh < 0 {
		return ln.Errf(ln.Tok(11), "negative ROW step")
	}
	x1 := x0 + float64(nx)*sw
	y1 := y0 + float64(ny)*rh
	if x1 > maxCoordUM || y1 > maxCoordUM {
		return ln.Errf(ln.Tok(7), "ROW extends past %g um", float64(maxCoordUM))
	}
	p.d.SiteWidth = sw
	p.d.RowHeight = rh
	p.d.Core = netlist.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
	return nil
}

// placedAt finds a "+ PLACED|FIXED ( x y )" group starting the scan at from,
// returning (x, y, fixed, found). The keyword must follow a "+" so that
// ports or instances *named* PLACED do not start a group.
func (p *defParser) placedAt(ln *scan.Line, from int) (x, y float64, fixed, found bool, err error) {
	for i := from; i < ln.Len(); i++ {
		if (ln.Tok(i) != "PLACED" && ln.Tok(i) != "FIXED") || ln.Tok(i-1) != "+" {
			continue
		}
		if i+3 >= ln.Len() || ln.Tok(i+1) != "(" {
			return 0, 0, false, false, ln.Errf(ln.Tok(i), "%s needs ( x y )", ln.Tok(i))
		}
		x, err = p.coord(ln, i+2)
		if err != nil {
			return 0, 0, false, false, err
		}
		y, err = p.coord(ln, i+3)
		if err != nil {
			return 0, 0, false, false, err
		}
		return x, y, ln.Tok(i) == "FIXED", true, nil
	}
	return 0, 0, false, false, nil
}

// component parses "- name master [+ PLACED|FIXED ( x y ) orient] ;".
func (p *defParser) component(ln *scan.Line) error {
	if err := ln.Require(3); err != nil {
		return err
	}
	m := p.lib.Master(ln.Tok(2))
	if m == nil {
		return ln.Errf(ln.Tok(2), "unknown master")
	}
	if _, dup := p.insts[ln.Tok(1)]; dup {
		return ln.Errf(ln.Tok(1), "duplicate component")
	}
	inst := p.d.AddInstance(ln.Tok(1), m)
	p.insts[inst.Name] = inst.ID
	x, y, fixed, found, err := p.placedAt(ln, 3)
	if err := p.warns.Tolerate(err); err != nil {
		return err
	}
	if found {
		inst.X, inst.Y = x, y
		inst.Placed = true
		inst.Fixed = fixed
	}
	return nil
}

// pin parses "- name + NET net + DIRECTION dir [+ PLACED ( x y ) orient] ;".
func (p *defParser) pin(ln *scan.Line) error {
	if err := ln.Require(2); err != nil {
		return err
	}
	dir := netlist.DirInput
	for i := 2; i < ln.Len(); i++ {
		if ln.Tok(i) != "DIRECTION" || ln.Tok(i-1) != "+" {
			continue
		}
		if i+1 >= ln.Len() {
			if err := p.warns.Tolerate(ln.Errf(ln.Tok(i), "DIRECTION without a value")); err != nil {
				return err
			}
			continue
		}
		switch ln.Tok(i + 1) {
		case "OUTPUT":
			dir = netlist.DirOutput
		case "INOUT":
			dir = netlist.DirInout
		}
	}
	if _, dup := p.ports[ln.Tok(1)]; dup {
		return ln.Errf(ln.Tok(1), "duplicate pin")
	}
	p.ports[ln.Tok(1)] = len(p.d.Ports)
	port := p.d.AddPort(ln.Tok(1), dir)
	x, y, _, found, err := p.placedAt(ln, 2)
	if err := p.warns.Tolerate(err); err != nil {
		return err
	}
	if found {
		port.X, port.Y, port.Placed = x, y, true
	}
	return nil
}

// net parses "- name ( inst pin )... [+ WEIGHT w] [+ USE CLOCK] ;".
func (p *defParser) net(ln *scan.Line) error {
	if err := ln.Require(2); err != nil {
		return err
	}
	if _, dup := p.nets[ln.Tok(1)]; dup {
		return ln.Errf(ln.Tok(1), "duplicate net")
	}
	p.nets[ln.Tok(1)] = struct{}{}
	n := p.d.AddNet(ln.Tok(1))
	i := 2
	for i < ln.Len() {
		switch ln.Tok(i) {
		case "(":
			if i+2 >= ln.Len() {
				return ln.Errf(ln.Tok(i), "truncated net connection")
			}
			ref, err := p.pinRef(ln, ln.Tok(i+1), ln.Tok(i+2))
			if err != nil {
				return err
			}
			p.d.Connect(n, ref)
			i += 3
			if i < ln.Len() && ln.Tok(i) == ")" {
				i++
			}
		case "+":
			if i+1 >= ln.Len() {
				i++
				continue
			}
			switch ln.Tok(i + 1) {
			case "WEIGHT":
				w, werr := p.weight(ln, i+2)
				if err := p.warns.Tolerate(werr); err != nil {
					return err
				}
				if werr == nil {
					n.Weight = w
				}
				i += 3
			case "USE":
				if i+2 < ln.Len() && ln.Tok(i+2) == "CLOCK" {
					n.Clock = true
				}
				i += 3
			default:
				i++
			}
		default:
			i++
		}
	}
	return nil
}

// pinRef resolves the net connection "( a b )": pin b of component a, or
// the pin (top-level port) b when a is PIN.
func (p *defParser) pinRef(ln *scan.Line, a, b string) (netlist.PinRef, error) {
	if a == "PIN" {
		i, ok := p.ports[b]
		if !ok {
			return netlist.PinRef{}, ln.Errf(b, "no port %q", b)
		}
		return netlist.PinRef{Inst: -1, Pin: i}, nil
	}
	inst, ok := p.insts[a]
	if !ok {
		return netlist.PinRef{}, ln.Errf(a, "unknown instance")
	}
	ref, err := p.d.PinRefOf(inst, b)
	if err != nil {
		return netlist.PinRef{}, ln.Errf(b, "%v", err)
	}
	return ref, nil
}

// weight parses a NET WEIGHT value: DEF weights are integers.
func (p *defParser) weight(ln *scan.Line, i int) (float64, error) {
	w, err := ln.Int(i)
	if err != nil {
		return 0, err
	}
	if w < -maxWeight || w > maxWeight {
		return 0, ln.Errf(ln.Tok(i), "WEIGHT out of range")
	}
	return float64(w), nil
}
