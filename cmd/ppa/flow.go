package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/flow"
	"ppaclust/internal/scan"
	"ppaclust/internal/sta"
	"ppaclust/internal/viz"
)

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
// case. An unknown value is a usage error that lists the valid ones.
func parseChoice[T any](flagName, val string, choices []choice[T]) (T, error) {
	names := make([]string, len(choices))
	for i, c := range choices {
		if strings.EqualFold(val, c.name) {
			return c.val, nil
		}
		names[i] = c.name
	}
	var zero T
	return zero, usagef("unknown -%s %q (valid: %s)", flagName, val, strings.Join(names, "|"))
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

// flowCmd runs the clustered placement flow (Algorithm 1), or the flat
// default flow, on a built-in benchmark design or on one loaded from the
// standard file set, and prints the PPA metrics the paper reports. A parse
// failure in a loaded file is reported with its file:line; -lenient
// downgrades recoverable field errors to warnings.
func flowCmd(args []string) error {
	fs := flag.NewFlagSet("ppa flow", flag.ContinueOnError)
	design := fs.String("design", "aes", designFlag)
	tool := fs.String("tool", "openroad", "seeded placement recipe: openroad|innovus")
	method := fs.String("method", "ppa", "clustering: ppa|mfc|leiden|louvain")
	shapes := fs.String("shapes", "uniform", "cluster shapes: uniform|random|vpr")
	seed := fs.Int64("seed", 1, "random seed")
	runDefault := fs.Bool("default", false, "run the flat default flow instead")
	skipRoute := fs.Bool("skip-route", false, "stop after placement (HPWL only)")
	repair := fs.Bool("repair", false, "insert buffers on long/high-fanout nets after placement")
	timingDriven := fs.Bool("timing-driven", false, "reweight critical nets from STA feedback at placement overflow checkpoints")
	routabilityDriven := fs.Bool("routability-driven", false, "inflate congested cells from router feedback at placement overflow checkpoints")
	writeDEF := fs.String("write-def", "", "write the final placement to this DEF file")
	writeSVG := fs.String("svg", "", "write a placement visualization to this SVG file")
	report := fs.Int("report", 0, "print a report_checks-style timing report for the N worst paths")
	vlogFile := fs.String("verilog", "", "load benchmark from files: verilog netlist (.v)")
	libFile := fs.String("liberty", "", "load benchmark from files: liberty library (.lib)")
	lefFile := fs.String("lef", "", "load benchmark from files: LEF macros (optional)")
	defFile := fs.String("def", "", "load benchmark from files: DEF floorplan (optional)")
	sdcFile := fs.String("sdc", "", "load benchmark from files: SDC constraints")
	lenient := fs.Bool("lenient", false, "tolerate recoverable parse errors in loaded files (warn and continue)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	opt := flow.Options{Seed: *seed, SkipRoute: *skipRoute, RepairBuffers: *repair,
		TimingDriven: *timingDriven, RoutabilityDriven: *routabilityDriven}
	if err := parseFlowChoices(&opt, *tool, *method, *shapes); err != nil {
		return err
	}

	var b *designs.Benchmark
	if *vlogFile != "" || *libFile != "" || *sdcFile != "" || *defFile != "" || *lefFile != "" {
		if *vlogFile == "" || *libFile == "" || *sdcFile == "" {
			return usagef("loading from files needs -verilog, -liberty and -sdc (-lef and -def are optional)")
		}
		fmt.Printf("loading benchmark from %s...\n", *vlogFile)
		loaded, warns, err := flow.LoadBenchmarkWith(flow.Files{
			Verilog: *vlogFile, Liberty: *libFile, LEF: *lefFile, DEF: *defFile, SDC: *sdcFile,
		}, *lenient)
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "ppa flow: warning: %v\n", w)
		}
		var pe *scan.ParseError
		if errors.As(err, &pe) {
			return fmt.Errorf("parse error at %v", pe)
		} else if err != nil {
			return err
		}
		b = loaded
	} else {
		var err error
		if b, err = generate(*design); err != nil {
			return err
		}
		fmt.Printf("generating %s (%s)...\n", *design, designs.PaperNames[*design])
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
		return err
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
		fmt.Println()
		an := sta.New(res.Placed, b.Cons)
		an.SetClockArrivalList(res.ClockArrivals)
		if err := an.WriteReport(os.Stdout, *report); err != nil {
			return err
		}
	}
	if *writeSVG != "" {
		if err := writeFile(*writeSVG, func(w io.Writer) error {
			return viz.WritePlacement(w, res.Placed, viz.Options{})
		}); err != nil {
			return err
		}
		fmt.Printf("wrote placement SVG to %s\n", *writeSVG)
	}
	if *writeDEF != "" {
		if err := writeFile(*writeDEF, func(w io.Writer) error { return def.Write(w, res.Placed) }); err != nil {
			return err
		}
		fmt.Printf("wrote placement to %s\n", *writeDEF)
	}
	return nil
}
