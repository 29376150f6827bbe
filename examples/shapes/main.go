// Cluster shaping walk-through: induce a cluster's sub-netlist, sweep the
// paper's 20 (aspect ratio, utilization) candidates with exact virtualized
// P&R, then train a small GNN on the sweep labels and show the model
// predicting the winner — the Figure 3 pipeline end to end.
package main

import (
	"fmt"
	"log"
	"time"

	"ppaclust/internal/cluster"
	"ppaclust/internal/designs"
	"ppaclust/internal/features"
	"ppaclust/internal/gnn"
	"ppaclust/internal/vpr"
)

func main() {
	spec, _ := designs.Named("aes")
	b := designs.Generate(spec)
	view := b.Design.ToHypergraph()
	res := cluster.MultilevelFC(view.H, cluster.Options{Seed: 1, TargetClusters: 12})

	// Collect the members of each sufficiently large cluster.
	members := make([][]int, res.NumClusters)
	for v, c := range res.Assign {
		members[c] = append(members[c], v)
	}
	var big [][]int
	for _, m := range members {
		if len(m) >= 60 {
			big = append(big, m)
		}
	}
	if len(big) == 0 {
		log.Fatal("no large clusters; lower the threshold")
	}
	fmt.Printf("%d clusters above the V-P&R gate\n\n", len(big))

	// Exact V-P&R on the first cluster: the 5x4 sweep of Section 3.2.
	sub, err := vpr.InduceSubNetlist(b.Design, big[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster sub-netlist: %d cells, %d nets, %d boundary ports\n",
		len(sub.Insts), len(sub.Nets), len(sub.Ports))
	t0 := time.Now()
	best, evals := vpr.BestShape(sub, vpr.Runner{Opt: vpr.Options{Seed: 1}})
	exactTime := time.Since(t0)
	fmt.Printf("\n%6s %6s %10s %10s %10s\n", "AR", "util", "costHPWL", "costCong", "total")
	for _, ev := range evals {
		mark := " "
		if ev.Shape == best {
			mark = "*"
		}
		fmt.Printf("%s%5.2f %6.2f %10.4f %10.4f %10.4f\n",
			mark, ev.Shape.AspectRatio, ev.Shape.Utilization, ev.CostHPWL, ev.CostCong, ev.TotalCost)
	}
	fmt.Printf("exact V-P&R winner: AR=%.2f util=%.2f (%v for 20 candidates)\n\n",
		best.AspectRatio, best.Utilization, exactTime)

	// ML acceleration: train on all big clusters' sweeps, predict on the
	// first one.
	var samples []gnn.Sample
	graphs := make([]*gnn.GraphInput, len(big))
	for i, m := range big {
		s, err := vpr.InduceSubNetlist(b.Design, m)
		if err != nil {
			log.Fatal(err)
		}
		graphs[i] = gnn.BuildGraphInput(s, features.Options{Seed: 1})
		_, sweep := vpr.BestShape(s, vpr.Runner{Opt: vpr.Options{Seed: 1}})
		for _, ev := range sweep {
			samples = append(samples, gnn.Sample{Graph: graphs[i], Shape: ev.Shape, Label: ev.TotalCost})
		}
	}
	model := gnn.NewModel(1)
	model.Fit(samples, gnn.TrainOptions{Epochs: 8, Seed: 1})
	met := model.Evaluate(samples)
	fmt.Printf("GNN trained on %d (cluster, shape) samples: MAE %.4f, R2 %.3f\n",
		len(samples), met.MAE, met.R2)

	t0 = time.Now()
	predicted := model.PredictBestShape(graphs[0])
	mlTime := time.Since(t0)
	fmt.Printf("ML-predicted winner: AR=%.2f util=%.2f (%v for 20 candidates)\n",
		predicted.AspectRatio, predicted.Utilization, mlTime)
	if predicted == best {
		fmt.Println("ML and exact V-P&R agree on the winning shape.")
	} else {
		fmt.Println("ML picked a different (near-optimal) candidate; see the cost table above.")
	}
}
