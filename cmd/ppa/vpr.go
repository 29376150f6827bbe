package main

import (
	"flag"
	"fmt"
	"time"

	"ppaclust/internal/flow"
	"ppaclust/internal/vpr"
)

// vprCmd demonstrates the virtualized P&R framework on the clusters flow.Run
// places (flow.Cluster): it induces the sub-netlist of each cluster above
// the flow's shape-selection gate, sweeps the 20 candidate shapes with exact
// V-P&R, and prints the per-shape costs plus the selected winner (Figure 3
// of the paper).
func vprCmd(args []string) error {
	fs := flag.NewFlagSet("ppa vpr", flag.ContinueOnError)
	design := fs.String("design", "aes", designFlag)
	seed := fs.Int64("seed", 1, "random seed")
	minInsts := fs.Int("min", 50, "shape clusters above this many instances (the flow's VPRMinInsts)")
	maxClusters := fs.Int("max-clusters", 4, "stop after this many shaped clusters")
	verbose := fs.Bool("v", false, "print every candidate's cost")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := generate(*design)
	if err != nil {
		return err
	}
	res, err := flow.Cluster(b, flow.Options{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d clusters\n", *design, res.NumClusters)

	members := make([][]int, res.NumClusters)
	for v, c := range res.Assign {
		members[c] = append(members[c], v)
	}
	shaped := 0
	for c := 0; c < res.NumClusters && shaped < *maxClusters; c++ {
		if len(members[c]) <= *minInsts {
			continue
		}
		sub, err := vpr.InduceSubNetlist(b.Design, members[c])
		if err != nil {
			return err
		}
		t0 := time.Now()
		best, evals := vpr.BestShape(sub, vpr.Runner{Opt: vpr.Options{Seed: *seed}})
		dt := time.Since(t0)
		fmt.Printf("\ncluster %d: %d cells, %d nets, %d boundary ports (%v for 20 shapes)\n",
			c, len(sub.Insts), len(sub.Nets), len(sub.Ports), dt)
		if *verbose {
			for _, ev := range evals {
				marker := " "
				if ev.Shape == best {
					marker = "*"
				}
				fmt.Printf("  %s AR=%.2f util=%.2f  costHPWL=%.4f costCong=%.4f total=%.4f\n",
					marker, ev.Shape.AspectRatio, ev.Shape.Utilization,
					ev.CostHPWL, ev.CostCong, ev.TotalCost)
			}
		}
		fmt.Printf("  best shape: AR=%.2f util=%.2f\n", best.AspectRatio, best.Utilization)
		shaped++
	}
	if shaped == 0 {
		fmt.Printf("no cluster above %d instances; try -min with a smaller value\n", *minInsts)
	}
	return nil
}
