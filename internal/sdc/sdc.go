// Package sdc reads and writes the SDC (Synopsys Design Constraints) subset
// the flow consumes: create_clock, set_input_delay, set_output_delay,
// set_input_transition and set_load. Times are expressed in nanoseconds and
// loads in picofarads in the file, converted to SI on parse.
package sdc

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"ppaclust/internal/scan"
	"ppaclust/internal/sta"
)

// Parse-time sanity bounds, in file units (ns / pF). The clock period must
// be a usable positive value; delays, transitions and loads are capped so
// the fixed-precision writer round-trips exactly.
const (
	minPeriodNS = 1e-3
	maxPeriodNS = 1e9
	maxValue    = 1e9
)

// Write emits constraints in SDC syntax. Output goes through one buffer, and
// the first failed write is the error returned.
func Write(out io.Writer, cons sta.Constraints) error {
	w := bufio.NewWriter(out)
	for _, clk := range cons.ClockPorts {
		fmt.Fprintf(w, "create_clock -name %s -period %.4f [get_ports %s]\n",
			clk, cons.ClockPeriod*1e9, clk)
	}
	if len(cons.ClockPorts) > 0 {
		clk := cons.ClockPorts[0]
		fmt.Fprintf(w, "set_input_delay %.4f -clock %s [all_inputs]\n", cons.InputDelay*1e9, clk)
		fmt.Fprintf(w, "set_output_delay %.4f -clock %s [all_outputs]\n", cons.OutputDelay*1e9, clk)
	}
	fmt.Fprintf(w, "set_input_transition %.4f [all_inputs]\n", cons.InputSlew*1e9)
	fmt.Fprintf(w, "set_load %.6f [all_outputs]\n", cons.PortCap*1e12)
	return w.Flush()
}

// Options configures a parse.
type Options struct {
	// File names the input in errors; defaults to "sdc".
	File string
	// Lenient tolerates recoverable field errors — a delay/transition/load
	// command without a parsable value — by keeping the default and
	// recording a warning. An unusable create_clock (missing, valueless or
	// unparsable -period) is fatal in both modes: the flow cannot default
	// the clock.
	Lenient bool
}

// ParseWith reads SDC commands into constraints. Strict parsing (the zero
// Options) makes every malformed field a *scan.ParseError; in lenient mode
// the returned warnings list the fields that were skipped. Unknown commands
// are ignored (the subset philosophy of most academic flows).
func ParseWith(r io.Reader, o Options) (sta.Constraints, []*scan.ParseError, error) {
	file := o.File
	if file == "" {
		file = "sdc"
	}
	// Start from neutral values; defaults derive from the parsed period.
	cons := sta.Constraints{InputSlew: 20e-12, PortCap: 4e-15, InputActivity: 0.15}
	var warns *scan.Warnings // nil in strict mode
	if o.Lenient {
		warns = &scan.Warnings{}
	}
	// Explicit-value tracking: a written 0.0000 must stay an explicit zero
	// instead of re-triggering the period-derived defaults.
	var sawInputDelay, sawOutputDelay bool

	sc := scan.NewScanner(r, file, 1024*1024)
	for sc.Scan() {
		ln := sc.Line()
		if strings.HasPrefix(ln.Tok(0), "#") {
			continue
		}
		ln = &scan.Line{File: ln.File, Num: ln.Num,
			Fields: tokenizeTCL(strings.Join(ln.Fields, " "))}
		switch ln.Tok(0) {
		case "create_clock":
			period, err := flagValue(ln, "-period")
			if err != nil {
				return cons, warns.List(), err
			}
			if period < minPeriodNS || period > maxPeriodNS {
				return cons, warns.List(),
					ln.Errf("-period", "clock period %g ns out of range [%g, %g]",
						period, minPeriodNS, maxPeriodNS)
			}
			// [get_ports X] makes X a clock root; a virtual clock (-name
			// only) sets the period alone. A clock without a usable name
			// cannot be re-emitted; the period is still recorded in lenient
			// mode (the flow needs only the period, ports just mark clock
			// nets).
			port := portArg(ln)
			name := port
			if port == "" {
				name = flagString(ln, "-name")
			}
			if name == "" || strings.HasPrefix(name, "-") {
				err := ln.Errf(name, "create_clock needs a port ([get_ports ...]) or -name")
				if err := warns.Tolerate(err); err != nil {
					return cons, warns.List(), err
				}
			} else if port != "" {
				cons.ClockPorts = append(cons.ClockPorts, port)
			}
			cons.ClockPeriod = period * 1e-9
		case "set_input_delay":
			if v, err := commandValue(ln); err != nil {
				if err := warns.Tolerate(err); err != nil {
					return cons, warns.List(), err
				}
			} else {
				cons.InputDelay = v * 1e-9
				sawInputDelay = true
			}
		case "set_output_delay":
			if v, err := commandValue(ln); err != nil {
				if err := warns.Tolerate(err); err != nil {
					return cons, warns.List(), err
				}
			} else {
				cons.OutputDelay = v * 1e-9
				sawOutputDelay = true
			}
		case "set_input_transition":
			if v, err := commandValue(ln); err != nil {
				if err := warns.Tolerate(err); err != nil {
					return cons, warns.List(), err
				}
			} else {
				cons.InputSlew = v * 1e-9
			}
		case "set_load":
			if v, err := commandValue(ln); err != nil {
				if err := warns.Tolerate(err); err != nil {
					return cons, warns.List(), err
				}
			} else {
				cons.PortCap = v * 1e-12
			}
		}
	}
	if err := sc.Err(); err != nil {
		return cons, warns.List(), err
	}
	if cons.ClockPeriod <= 0 {
		return cons, warns.List(), scan.Errorf(file, 0, "", "no create_clock -period found")
	}
	// Derive defaults the file did not set.
	if !sawInputDelay && cons.InputDelay == 0 {
		cons.InputDelay = 0.1 * cons.ClockPeriod
	}
	if !sawOutputDelay && cons.OutputDelay == 0 {
		cons.OutputDelay = 0.1 * cons.ClockPeriod
	}
	return cons, warns.List(), nil
}

// tokenizeTCL splits a line, treating [get_ports x] brackets as grouping.
func tokenizeTCL(line string) []string {
	line = strings.ReplaceAll(line, "[", " [ ")
	line = strings.ReplaceAll(line, "]", " ] ")
	return strings.Fields(line)
}

// flagValue finds "flag value" in the line and parses the value, reporting
// a missing flag, a flag that ends the line, and an unparsable value as
// distinct errors.
func flagValue(ln *scan.Line, flag string) (float64, *scan.ParseError) {
	for i := 0; i < ln.Len(); i++ {
		if ln.Tok(i) != flag {
			continue
		}
		if i+1 >= ln.Len() {
			return 0, ln.Errf(flag, "%s is the last token; it needs a value", flag)
		}
		v, ok := scan.ParseFloat(ln.Tok(i + 1))
		if !ok {
			return 0, ln.Errf(ln.Tok(i+1), "unparsable %s value", flag)
		}
		return v, nil
	}
	return 0, ln.Errf(ln.Tok(0), "missing %s", flag)
}

// flagString finds "flag value" and returns the value token, or "".
func flagString(ln *scan.Line, flag string) string {
	for i := 0; i+1 < ln.Len(); i++ {
		if ln.Tok(i) == flag {
			return ln.Tok(i + 1)
		}
	}
	return ""
}

// portArg extracts X from "[ get_ports X ]".
func portArg(ln *scan.Line) string {
	for i := 0; i+1 < ln.Len(); i++ {
		if ln.Tok(i) == "get_ports" && ln.Tok(i+1) != "]" {
			return ln.Tok(i + 1)
		}
	}
	return ""
}

// commandValue returns the first finite number among the command's
// arguments, bounded to the writer-stable range.
func commandValue(ln *scan.Line) (float64, *scan.ParseError) {
	for i := 1; i < ln.Len(); i++ {
		tok := ln.Tok(i)
		if v, ok := scan.ParseFloat(tok); ok {
			if v < -maxValue || v > maxValue {
				return 0, ln.Errf(tok, "value out of range (|v| > %g)", float64(maxValue))
			}
			return v, nil
		}
	}
	return 0, ln.Errf(ln.Tok(0), "no numeric value found")
}
