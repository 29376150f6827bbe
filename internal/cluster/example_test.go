package cluster_test

import (
	"fmt"

	"ppaclust/internal/cluster"
	"ppaclust/internal/hypergraph"
)

// Two disconnected triangles coarsen into exactly two clusters: FC merges
// along hyperedges, so components never mix.
func ExampleMultilevelFC() {
	h := hypergraph.NewWithCap(6, 0, 0)
	for v := 0; v < 6; v++ {
		h.SetVertexWeight(v, 1)
	}
	for _, e := range [][]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		h.AddEdge(e, 1)
	}

	res := cluster.MultilevelFC(h, cluster.Options{TargetClusters: 2, Seed: 1})
	fmt.Println("clusters:", res.NumClusters)
	fmt.Println("triangles separated:", res.Assign[0] != res.Assign[3])
	// Output:
	// clusters: 2
	// triangles separated: true
}

// Eq. 2 switching costs grow with a net's share of total activity.
func ExampleSwitchCosts() {
	costs := cluster.SwitchCosts([]float64{1, 3}, 2)
	fmt.Printf("%.4f %.4f\n", costs[0], costs[1])
	// Output:
	// 1.5625 3.0625
}
