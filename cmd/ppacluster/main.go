// Command ppacluster runs and compares the clustering methods (PPA-aware
// multilevel FC, plain MFC, Leiden, Louvain, hierarchy-only) on one
// benchmark and prints clustering-quality metrics: cluster count, cut size,
// weighted-average Rent exponent and modularity.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ppaclust/internal/cluster"
	"ppaclust/internal/community"
	"ppaclust/internal/designs"
	"ppaclust/internal/hier"
	"ppaclust/internal/sta"
)

func main() {
	design := flag.String("design", "aes", "benchmark: aes|jpeg|ariane|bp|mb|mpg")
	seed := flag.Int64("seed", 1, "random seed")
	target := flag.Int("clusters", 0, "FC target cluster count (0 = auto)")
	flag.Parse()

	spec, ok := designs.Named(*design)
	if !ok {
		fmt.Fprintf(os.Stderr, "ppacluster: unknown design %q\n", *design)
		os.Exit(2)
	}
	b := designs.Generate(spec)
	d := b.Design
	view := d.ToHypergraph()
	h := view.H
	g := h.CliqueExpand()
	fmt.Printf("%s: %d instances, %d hyperedges, %d pins\n\n",
		*design, h.NumVertices(), h.NumEdges(), h.NumPins())

	report := func(name string, assign []int, k int, dt time.Duration) {
		fmt.Printf("%-12s clusters=%-6d cut=%-10.1f Ravg=%-7.4f Q=%-7.4f time=%v\n",
			name, k, h.CutSize(assign), h.WeightedAvgRent(assign),
			community.Modularity(g, assign, 1), dt)
	}

	// Hierarchy-based clustering (Algorithm 2).
	t0 := time.Now()
	if hres, ok := hier.Cluster(d, h); ok {
		report("hierarchy", hres.Assign, hres.Clusters, time.Since(t0))
	}

	// PPA-aware multilevel FC.
	t0 = time.Now()
	groups := []int(nil)
	if hres, ok := hier.Cluster(d, h); ok {
		groups = hres.Assign
	}
	an := sta.New(d, b.Cons)
	paths := an.TopPaths(100000)
	pathNets := make([][]int, len(paths))
	slacks := make([]float64, len(paths))
	for i, p := range paths {
		slacks[i] = p.Slack
		for _, netID := range p.Nets {
			if e := view.EdgeOfNet[netID]; e >= 0 {
				pathNets[i] = append(pathNets[i], e)
			}
		}
	}
	tCost := cluster.TimingCosts(pathNets, slacks, b.Cons.ClockPeriod, h.NumEdges())
	netAct := an.NetActivity()
	edgeAct := make([]float64, h.NumEdges())
	for e, id := range view.NetOfEdge {
		edgeAct[e] = netAct[id]
	}
	ppa := cluster.MultilevelFC(h, cluster.Options{
		Alpha: 1, Beta: 1, Gamma: 1,
		TargetClusters: *target, Seed: *seed, Groups: groups,
		EdgeTimingCost: tCost,
		EdgeSwitchCost: cluster.SwitchCosts(edgeAct, 2),
	})
	report("ppa-aware", ppa.Assign, ppa.NumClusters, time.Since(t0))
	fmt.Printf("%-12s   levels=%d singletons=%d\n", "", ppa.Levels, ppa.Singletons)

	// Plain MFC.
	t0 = time.Now()
	mfc := cluster.MultilevelFC(h, cluster.Options{Alpha: 1, TargetClusters: *target, Seed: *seed})
	report("mfc", mfc.Assign, mfc.NumClusters, time.Since(t0))

	// Louvain / Leiden.
	t0 = time.Now()
	lv := community.Louvain(g, community.Options{Seed: *seed})
	report("louvain", lv, community.NumCommunities(lv), time.Since(t0))
	t0 = time.Now()
	ld := community.Leiden(g, community.Options{Seed: *seed})
	report("leiden", ld, community.NumCommunities(ld), time.Since(t0))
}
