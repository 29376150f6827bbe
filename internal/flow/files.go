package flow

import (
	"fmt"
	"io"
	"os"
	"slices"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/lef"
	"ppaclust/internal/liberty"
	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
	"ppaclust/internal/sdc"
	"ppaclust/internal/sta"
	"ppaclust/internal/verilog"
)

// Files names the input file set of Algorithm 1 (.v, .lib, .lef, .def, .sdc).
type Files struct {
	Verilog string
	Liberty string
	LEF     string
	DEF     string
	SDC     string
}

// LoadBenchmark assembles a runnable benchmark from the standard file set:
// the Liberty file provides the electrical library, LEF merges in geometry,
// Verilog provides the netlist, the DEF provides floorplan plus port and
// macro preplacement (its nets are checked but not recorded: the Verilog
// provides the connectivity), and the SDC provides constraints. Parsing is
// strict; parse failures surface as *scan.ParseError values carrying file
// and line.
func LoadBenchmark(f Files) (*designs.Benchmark, error) {
	b, _, err := LoadBenchmarkWith(f, false)
	return b, err
}

// LoadBenchmarkWith loads the file set, optionally in lenient mode: parsers
// skip recoverable malformed fields and report them in the returned warning
// list instead of failing. Structural errors remain fatal either way.
//
// Liberty and LEF load first; after that the library is only read, so the
// Verilog and DEF reads run side by side (one after the other at one
// worker). Errors and warnings come back as if the files were read in turn:
// a Verilog error wins and carries no DEF warnings, and Verilog warnings are
// listed before DEF ones. The readers resolve every pin name as they read
// it: a net pin naming an undeclared port or master pin is a parse error
// with file and line. So is, in both modes, an SDC clock root that names no
// port of the design; the nets on a clock root are marked as clock nets,
// which is where the STA, CTS and activity take the clock from.
func LoadBenchmarkWith(f Files, lenient bool) (*designs.Benchmark, []*scan.ParseError, error) {
	var warns []*scan.ParseError
	lib, w, err := parseFile(f.Liberty, func(r io.Reader) (*netlist.Library, []*scan.ParseError, error) {
		return liberty.ParseWith(r, liberty.Options{File: f.Liberty, Lenient: lenient})
	})
	warns = append(warns, w...)
	if err != nil {
		return nil, warns, fmt.Errorf("flow: liberty: %w", err)
	}
	if f.LEF != "" {
		_, w, err := parseFile(f.LEF, func(r io.Reader) ([]string, []*scan.ParseError, error) {
			return lef.ParseWith(r, lib, lef.Options{File: f.LEF, Lenient: lenient})
		})
		warns = append(warns, w...)
		if err != nil {
			return nil, warns, fmt.Errorf("flow: lef: %w", err)
		}
	}
	var (
		d, fp          *netlist.Design
		fpIndex        floorplanIndex
		vWarns, dWarns []*scan.ParseError
		vErr, dErr     error
	)
	fork(0, func() {
		d, vWarns, vErr = parseFile(f.Verilog, func(r io.Reader) (*netlist.Design, []*scan.ParseError, error) {
			return verilog.ParseWith(r, lib, verilog.Options{File: f.Verilog, Lenient: lenient})
		})
	}, func() {
		if f.DEF == "" {
			return
		}
		fp, dWarns, dErr = parseFile(f.DEF, func(r io.Reader) (*netlist.Design, []*scan.ParseError, error) {
			return def.ReadFloorplan(r, lib, def.Options{File: f.DEF, Lenient: lenient})
		})
		if dErr == nil {
			fpIndex = indexFloorplan(fp)
		}
	})
	warns = append(warns, vWarns...)
	if vErr != nil {
		return nil, warns, fmt.Errorf("flow: verilog: %w", vErr)
	}
	warns = append(warns, dWarns...)
	if dErr != nil {
		return nil, warns, fmt.Errorf("flow: def: %w", dErr)
	}
	if fp != nil {
		mergeFloorplan(d, fp, fpIndex)
	}
	cons, w, err := parseFile(f.SDC, func(r io.Reader) (sta.Constraints, []*scan.ParseError, error) {
		return sdc.ParseWith(r, sdc.Options{File: f.SDC, Lenient: lenient})
	})
	warns = append(warns, w...)
	if err != nil {
		return nil, warns, fmt.Errorf("flow: sdc: %w", err)
	}
	for _, clkPort := range cons.ClockPorts {
		pi := slices.IndexFunc(d.Ports, func(p *netlist.Port) bool { return p.Name == clkPort })
		if pi < 0 {
			return nil, warns, fmt.Errorf("flow: sdc: %s: clock root: design %s has no port %q", f.SDC, d.Name, clkPort)
		}
		root := netlist.PinRef{Inst: -1, Pin: pi}
		for _, n := range d.Nets {
			if slices.Contains(n.Pins, root) {
				n.Clock = true
			}
		}
	}
	return &designs.Benchmark{Design: d, Cons: cons}, warns, nil
}

// parseFile opens path, hands it to parse and closes it again. An open
// failure comes back as is, with no warnings.
func parseFile[T any](path string, parse func(io.Reader) (T, []*scan.ParseError, error)) (T, []*scan.ParseError, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, nil, err
	}
	defer f.Close()
	return parse(f)
}

// floorplanIndex finds a DEF-parsed design's placed or fixed instances
// and placed ports by name.
type floorplanIndex struct {
	insts map[string]*netlist.Instance
	ports map[string]*netlist.Port
}

// indexFloorplan builds the index mergeFloorplan looks names up in; the
// loader builds it beside the Verilog read.
func indexFloorplan(fp *netlist.Design) floorplanIndex {
	ix := floorplanIndex{insts: make(map[string]*netlist.Instance, len(fp.Insts)), ports: make(map[string]*netlist.Port, len(fp.Ports))}
	for _, inst := range fp.Insts {
		if inst.Placed || inst.Fixed {
			ix.insts[inst.Name] = inst
		}
	}
	for _, p := range fp.Ports {
		if p.Placed {
			ix.ports[p.Name] = p
		}
	}
	return ix
}

// mergeFloorplan copies geometry from a DEF-parsed design into the
// Verilog-parsed design by name: die/core/rows, port placement, instance
// placement and fixed status. A name the DEF does not place keeps the
// Verilog design's (unplaced) state.
func mergeFloorplan(d, fp *netlist.Design, ix floorplanIndex) {
	d.Die, d.Core = fp.Die, fp.Core
	d.RowHeight, d.SiteWidth = fp.RowHeight, fp.SiteWidth
	for _, dp := range d.Ports {
		if p := ix.ports[dp.Name]; p != nil {
			dp.X, dp.Y, dp.Placed = p.X, p.Y, true
		}
	}
	for _, di := range d.Insts {
		if inst := ix.insts[di.Name]; inst != nil {
			di.X, di.Y = inst.X, inst.Y
			di.Placed = inst.Placed
			di.Fixed = inst.Fixed
		}
	}
}
