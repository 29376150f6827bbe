package flow

import (
	"fmt"
	"io"
	"os"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/lef"
	"ppaclust/internal/liberty"
	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
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
// macro preplacement (its nets are ignored in favor of the Verilog
// connectivity), and the SDC provides constraints. Parsing is strict; parse
// failures surface as *scan.ParseError values carrying file and line.
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
// listed before DEF ones.
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
		vWarns, dWarns []*scan.ParseError
		vErr, dErr     error
	)
	par.Blocks(par.Workers(0), 2, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == 0 {
				d, vWarns, vErr = parseFile(f.Verilog, func(r io.Reader) (*netlist.Design, []*scan.ParseError, error) {
					return verilog.ParseWith(r, lib, verilog.Options{File: f.Verilog, Lenient: lenient})
				})
			} else if f.DEF != "" {
				fp, dWarns, dErr = parseFile(f.DEF, func(r io.Reader) (*netlist.Design, []*scan.ParseError, error) {
					return def.ParseWith(r, lib, def.Options{File: f.DEF, Lenient: lenient})
				})
			}
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
		mergeFloorplan(d, fp)
	}
	cons, w, err := parseFile(f.SDC, func(r io.Reader) (sta.Constraints, []*scan.ParseError, error) {
		return sdc.ParseWith(r, sdc.Options{File: f.SDC, Lenient: lenient})
	})
	warns = append(warns, w...)
	if err != nil {
		return nil, warns, fmt.Errorf("flow: sdc: %w", err)
	}
	// Mark clock nets from the SDC clock roots.
	for _, clkPort := range cons.ClockPorts {
		for _, n := range d.Nets {
			for _, pr := range n.Pins {
				if pr.IsPort() && pr.Pin == clkPort {
					n.Clock = true
				}
			}
		}
	}
	if err := d.Validate(); err != nil {
		return nil, warns, fmt.Errorf("flow: loaded design invalid: %w", err)
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

// mergeFloorplan copies geometry from a DEF-parsed design into the
// Verilog-parsed design by name: die/core/rows, port placement, instance
// placement and fixed status.
func mergeFloorplan(d, fp *netlist.Design) {
	d.Die, d.Core = fp.Die, fp.Core
	d.RowHeight, d.SiteWidth = fp.RowHeight, fp.SiteWidth
	for _, p := range fp.Ports {
		if dp := d.Port(p.Name); dp != nil && p.Placed {
			dp.X, dp.Y, dp.Placed = p.X, p.Y, true
		}
	}
	for _, inst := range fp.Insts {
		if di := d.Instance(inst.Name); di != nil && (inst.Placed || inst.Fixed) {
			di.X, di.Y = inst.X, inst.Y
			di.Placed = inst.Placed
			di.Fixed = inst.Fixed
		}
	}
}
