// Hierarchy clustering walk-through: write a benchmark to gate-level
// Verilog, parse it back (hierarchy survives via escaped identifiers), run
// Algorithm 2's dendrogram levelization with Rent-exponent level selection,
// and show how the chosen level compares to the alternatives.
package main

import (
	"bytes"
	"fmt"
	"log"

	"ppaclust/internal/designs"
	"ppaclust/internal/hier"
	"ppaclust/internal/verilog"
)

func main() {
	spec, _ := designs.Named("ariane") // deep hierarchy (depth 3)
	b := designs.Generate(spec)

	// Round-trip through the Verilog subset, as the real flow would ingest
	// a netlist file rather than an in-memory design.
	var buf bytes.Buffer
	if err := verilog.Write(&buf, b.Design); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("emitted %d bytes of gate-level Verilog\n", buf.Len())
	d, err := verilog.Parse(&buf, b.Design.Lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed back: %d instances, %d nets\n\n", len(d.Insts), len(d.Nets))

	// Algorithm 2: dendrogram levelization + Rent-criterion selection.
	h := d.ToHypergraph().H
	res, ok := hier.Cluster(d, h)
	if !ok {
		log.Fatal("design has no logical hierarchy")
	}
	fmt.Println("level  R_avg     (selected level minimizes the weighted Rent exponent)")
	for _, sc := range res.Scores {
		mark := " "
		if sc.Level == res.Level {
			mark = "*"
		}
		fmt.Printf("%s %3d   %.4f\n", mark, sc.Level, sc.RAvg)
	}
	fmt.Printf("\nselected level %d: %d clusters, R_avg %.4f\n", res.Level, res.Clusters, res.RAvg)
	fmt.Println("\nthese clusters become the grouping constraints of the PPA-aware")
	fmt.Println("multilevel FC clustering (Algorithm 1 line 7).")
}
