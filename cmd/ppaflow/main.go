// Command ppaflow runs the clustered placement flow (Algorithm 1) — or the
// flat default flow — on one of the built-in benchmark designs, or on a
// benchmark loaded from the standard file set, and prints the PPA metrics
// the paper reports.
//
// Usage:
//
//	ppaflow -design ariane -tool openroad -method ppa -shapes uniform
//	ppaflow -design aes -default
//	ppaflow -verilog t.v -liberty t.lib -lef t.lef -def t.def -sdc t.sdc
//
// Parse failures in loaded files are reported as file:line diagnostics and
// exit non-zero; -lenient downgrades recoverable field errors to warnings.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/flow"
	"ppaclust/internal/scan"
	"ppaclust/internal/sta"
	"ppaclust/internal/viz"
)

// fatalParse prints a parse failure with its file:line context when the
// error is structured, and exits non-zero either way.
func fatalParse(err error) {
	var pe *scan.ParseError
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "ppaflow: parse error at %v\n", pe)
	} else {
		fmt.Fprintf(os.Stderr, "ppaflow: %v\n", err)
	}
	os.Exit(1)
}

// choice is one accepted value of an enumerated flag.
type choice[T any] struct {
	name string
	val  T
}

var (
	toolChoices   = []choice[flow.Tool]{{"openroad", flow.ToolOpenROAD}, {"innovus", flow.ToolInnovus}}
	methodChoices = []choice[flow.Method]{{"ppa", flow.MethodPPAAware}, {"mfc", flow.MethodMFC},
		{"leiden", flow.MethodLeiden}, {"louvain", flow.MethodLouvain}}
	shapeChoices = []choice[flow.ShapeMode]{{"uniform", flow.ShapeUniform}, {"random", flow.ShapeRandom},
		{"vpr", flow.ShapeVPR}}
)

// parseChoice maps an enumerated flag's value to its constant, ignoring
// case. An unknown value is an error that lists the valid ones.
func parseChoice[T any](flagName, val string, choices []choice[T]) (T, error) {
	names := make([]string, len(choices))
	for i, c := range choices {
		if strings.EqualFold(val, c.name) {
			return c.val, nil
		}
		names[i] = c.name
	}
	var zero T
	return zero, fmt.Errorf("unknown -%s %q (valid: %s)", flagName, val, strings.Join(names, "|"))
}

// parseFlowChoices fills opt's tool, clustering method and shape mode from
// the three enumerated flags.
func parseFlowChoices(opt *flow.Options, tool, method, shapes string) (err error) {
	if opt.Tool, err = parseChoice("tool", tool, toolChoices); err != nil {
		return err
	}
	if opt.Method, err = parseChoice("method", method, methodChoices); err != nil {
		return err
	}
	opt.Shapes, err = parseChoice("shapes", shapes, shapeChoices)
	return err
}

func main() {
	design := flag.String("design", "aes", "benchmark: aes|jpeg|ariane|bp|mb|mpg")
	tool := flag.String("tool", "openroad", "seeded placement recipe: openroad|innovus")
	method := flag.String("method", "ppa", "clustering: ppa|mfc|leiden|louvain")
	shapes := flag.String("shapes", "uniform", "cluster shapes: uniform|random|vpr")
	seed := flag.Int64("seed", 1, "random seed")
	runDefault := flag.Bool("default", false, "run the flat default flow instead")
	skipRoute := flag.Bool("skip-route", false, "stop after placement (HPWL only)")
	repair := flag.Bool("repair", false, "insert buffers on long/high-fanout nets after placement")
	timingDriven := flag.Bool("timing-driven", false, "reweight critical nets from STA feedback at placement overflow checkpoints")
	routabilityDriven := flag.Bool("routability-driven", false, "inflate congested cells from router feedback at placement overflow checkpoints")
	writeDEF := flag.String("write-def", "", "write the final placement to this DEF file")
	writeSVG := flag.String("svg", "", "write a placement visualization to this SVG file")
	report := flag.Int("report", 0, "print a report_checks-style timing report for the N worst paths")
	vlogFile := flag.String("verilog", "", "load benchmark from files: verilog netlist (.v)")
	libFile := flag.String("liberty", "", "load benchmark from files: liberty library (.lib)")
	lefFile := flag.String("lef", "", "load benchmark from files: LEF macros (optional)")
	defFile := flag.String("def", "", "load benchmark from files: DEF floorplan (optional)")
	sdcFile := flag.String("sdc", "", "load benchmark from files: SDC constraints")
	lenient := flag.Bool("lenient", false, "tolerate recoverable parse errors in loaded files (warn and continue)")
	flag.Parse()

	opt := flow.Options{Seed: *seed, SkipRoute: *skipRoute, RepairBuffers: *repair,
		TimingDriven: *timingDriven, RoutabilityDriven: *routabilityDriven}
	if err := parseFlowChoices(&opt, *tool, *method, *shapes); err != nil {
		fmt.Fprintf(os.Stderr, "ppaflow: %v\n", err)
		os.Exit(2)
	}

	var b *designs.Benchmark
	if *vlogFile != "" || *libFile != "" || *sdcFile != "" || *defFile != "" || *lefFile != "" {
		if *vlogFile == "" || *libFile == "" || *sdcFile == "" {
			fmt.Fprintln(os.Stderr, "ppaflow: loading from files needs -verilog, -liberty and -sdc (-lef and -def are optional)")
			os.Exit(2)
		}
		fmt.Printf("loading benchmark from %s...\n", *vlogFile)
		loaded, warns, err := flow.LoadBenchmarkWith(flow.Files{
			Verilog: *vlogFile, Liberty: *libFile, LEF: *lefFile, DEF: *defFile, SDC: *sdcFile,
		}, *lenient)
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "ppaflow: warning: %v\n", w)
		}
		if err != nil {
			fatalParse(err)
		}
		b = loaded
	} else {
		spec, ok := designs.Named(*design)
		if !ok {
			fmt.Fprintf(os.Stderr, "ppaflow: unknown design %q\n", *design)
			os.Exit(2)
		}
		fmt.Printf("generating %s (%s)...\n", *design, designs.PaperNames[*design])
		b = designs.Generate(spec)
	}
	st := b.Design.Stats()
	fmt.Printf("  %d instances, %d nets, %d ports, TCP %.2f ns\n",
		st.Insts, st.Nets, st.Ports, b.Cons.ClockPeriod*1e9)

	var res *flow.Result
	var err error
	if *runDefault {
		fmt.Println("running default (flat) flow...")
		res, err = flow.RunDefault(b, opt)
	} else {
		fmt.Printf("running clustered flow: tool=%v method=%v shapes=%v...\n",
			opt.Tool, opt.Method, opt.Shapes)
		res, err = flow.Run(b, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppaflow: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nresults:\n")
	if !*runDefault {
		fmt.Printf("  clusters        %d (%d shaped by V-P&R)\n", res.Clusters, res.ShapedVPR)
		fmt.Printf("  cluster time    %v\n", res.ClusterTime)
		fmt.Printf("  shape time      %v\n", res.ShapeTime)
		fmt.Printf("  seed place      %v\n", res.SeedPlaceTime)
		fmt.Printf("  incr place      %v\n", res.IncrPlaceTime)
	}
	fmt.Printf("  place time      %v\n", res.PlaceTime)
	fmt.Printf("  HPWL            %.1f um\n", res.HPWL)
	if !*skipRoute {
		fmt.Printf("  routed WL       %.1f um (clock %.1f um)\n", res.RoutedWL, res.ClockWL)
		fmt.Printf("  WNS             %.1f ps\n", res.WNS*1e12)
		fmt.Printf("  TNS             %.2f ns\n", res.TNS*1e9)
		fmt.Printf("  hold WNS/TNS    %.1f ps / %.3f ns\n", res.HoldWNS*1e12, res.HoldTNS*1e9)
		fmt.Printf("  power           %.4f W (switching %.4f, internal %.4f, leakage %.4g)\n",
			res.Power, res.PowerRep.Switching, res.PowerRep.Internal, res.PowerRep.Leakage)
		fmt.Printf("  route overflow  %d\n", res.Overflow)
		fmt.Printf("  max congestion  %.3f\n", res.MaxCongestion)
		fmt.Printf("  DRV             %d max-cap, %d max-slew\n", res.DRVCap, res.DRVSlew)
	}
	if *report > 0 {
		an := sta.New(res.Placed, b.Cons)
		fmt.Println()
		if err := an.WriteReport(os.Stdout, *report); err != nil {
			fmt.Fprintf(os.Stderr, "ppaflow: %v\n", err)
			os.Exit(1)
		}
	}
	if *writeSVG != "" {
		write(*writeSVG, func(f *os.File) error { return viz.WritePlacement(f, res.Placed, viz.Options{}) })
		fmt.Printf("wrote placement SVG to %s\n", *writeSVG)
	}
	if *writeDEF != "" {
		write(*writeDEF, func(f *os.File) error { return def.Write(f, res.Placed) })
		fmt.Printf("wrote placement to %s\n", *writeDEF)
	}
}

// write creates path and fills it with fn. A failed create, write or close
// exits 1 with the message, so a truncated file is never reported written.
func write(path string, fn func(f *os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ppaflow: %v\n", err)
	os.Exit(1)
}
