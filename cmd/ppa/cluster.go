package main

import (
	"flag"
	"fmt"
	"time"

	"ppaclust/internal/community"
	"ppaclust/internal/flow"
	"ppaclust/internal/hier"
)

// clusterCmd prints, for each clustering method, the clustering flow.Run
// places (flow.Cluster), beside the hierarchy-only grouping of Algorithm 2,
// with its cluster count, cut size, weighted-average Rent exponent and
// modularity.
func clusterCmd(args []string) error {
	fs := flag.NewFlagSet("ppa cluster", flag.ContinueOnError)
	design := fs.String("design", "aes", designFlag)
	seed := fs.Int64("seed", 1, "random seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := generate(*design)
	if err != nil {
		return err
	}
	h := b.Design.ToHypergraph().H
	g := h.CliqueExpand()
	fmt.Printf("%s: %d instances, %d hyperedges, %d pins\n\n",
		*design, h.NumVertices(), h.NumEdges(), h.NumPins())

	report := func(name string, assign []int, k int, dt time.Duration) {
		fmt.Printf("%-12s clusters=%-6d cut=%-10.1f Ravg=%-7.4f Q=%-7.4f time=%v\n",
			name, k, h.CutSize(assign), h.WeightedAvgRent(assign),
			community.Modularity(g, assign, 1), dt)
	}
	t0 := time.Now()
	if hres, ok := hier.Cluster(b.Design, h); ok {
		report("hierarchy", hres.Assign, hres.Clusters, time.Since(t0))
	}
	for _, m := range []flow.Method{flow.MethodPPAAware, flow.MethodMFC, flow.MethodLouvain, flow.MethodLeiden} {
		t0 = time.Now()
		res, err := flow.Cluster(b, flow.Options{Method: m, Seed: *seed})
		if err != nil {
			return err
		}
		report(m.String(), res.Assign, res.NumClusters, time.Since(t0))
		fmt.Printf("%-12s   levels=%d singletons=%d\n", "", res.Levels, res.Singletons)
	}
	return nil
}
