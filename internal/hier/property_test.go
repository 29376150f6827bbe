package hier

import (
	"testing"
	"testing/quick"

	"ppaclust/internal/designs"
)

// TestPropertyLevelsAreRefinements: in a levelized dendrogram, the
// clustering at level k+1 refines the clustering at level k — two
// instances separated at level k stay separated at every deeper level.
func TestPropertyLevelsAreRefinements(t *testing.T) {
	f := func(seed int64) bool {
		spec := designs.TinySpec(3000 + seed%7)
		spec.Depth = 3
		spec.Branch = 2
		spec.TargetInsts = 120
		b := designs.Generate(spec)
		dg, ok := build(b.Design)
		if !ok {
			return false
		}
		prev := dg.clusteringAtLevel(0)
		for k := 1; k <= dg.levelMax; k++ {
			cur := dg.clusteringAtLevel(k)
			// Same cluster at level k implies same cluster at level k-1.
			rep := map[int]int{}
			for v := range cur {
				if r, seen := rep[cur[v]]; seen {
					if prev[r] != prev[v] {
						return false
					}
				} else {
					rep[cur[v]] = v
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 14}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRentChosenIsMinimum: the selected level always carries the
// minimum R_avg among evaluated levels.
func TestPropertyRentChosenIsMinimum(t *testing.T) {
	f := func(seed int64) bool {
		spec := designs.TinySpec(4000 + seed%5)
		b := designs.Generate(spec)
		h := b.Design.ToHypergraph().H
		res, ok := Cluster(b.Design, h)
		if !ok {
			return false
		}
		for _, sc := range res.Scores {
			if sc.RAvg < res.RAvg-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
