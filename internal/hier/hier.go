// Package hier implements the paper's Algorithm 2: hierarchy-based
// clustering. The logical hierarchy tree of the netlist is interpreted as a
// dendrogram, the dendrogram is levelized by replicating shallow leaves, and
// the level whose induced clustering minimizes the weighted-average Rent
// exponent (Eq. 1) is selected.
package hier

import (
	"math"
	"strings"

	"ppaclust/internal/hypergraph"
	"ppaclust/internal/netlist"
)

// dendrogram is the levelized logical-hierarchy dendrogram of a design.
type dendrogram struct {
	parent   []int
	level    []int
	children [][]int
	insts    [][]int // instances attached to this node (leaves only after levelize)
	root     int
	levelMax int
	nInsts   int
}

// build constructs the dendrogram from the design's instance hierarchy
// (instance names are '/'-separated paths). ok is false when the design is
// flat (no hierarchy information to exploit).
func build(d *netlist.Design) (*dendrogram, bool) {
	dg := &dendrogram{nInsts: len(d.Insts)}
	byPath := map[string]int{}
	newNode := func(path string, parent int) int {
		id := len(dg.parent)
		dg.parent = append(dg.parent, parent)
		dg.level = append(dg.level, 0)
		dg.children = append(dg.children, nil)
		dg.insts = append(dg.insts, nil)
		if parent >= 0 {
			dg.children[parent] = append(dg.children[parent], id)
		}
		byPath[path] = id
		return id
	}
	dg.root = newNode("", -1)

	ensure := func(path string) int {
		if id, ok := byPath[path]; ok {
			return id
		}
		// Create all missing ancestors.
		parts := strings.Split(path, "/")
		parent := dg.root
		cur := ""
		for _, p := range parts {
			if cur == "" {
				cur = p
			} else {
				cur = cur + "/" + p
			}
			id, ok := byPath[cur]
			if !ok {
				id = newNode(cur, parent)
			}
			parent = id
		}
		return parent
	}

	anyHier := false
	for _, inst := range d.Insts {
		scope := inst.HierPath()
		if len(scope) == 0 {
			dg.insts[dg.root] = append(dg.insts[dg.root], inst.ID)
			continue
		}
		anyHier = true
		node := ensure(strings.Join(scope, "/"))
		dg.insts[node] = append(dg.insts[node], inst.ID)
	}
	if !anyHier {
		return nil, false
	}
	dg.splitMixedNodes()
	dg.computeLevels()
	dg.levelize()
	return dg, true
}

// splitMixedNodes moves instances of internal nodes into a dedicated child
// leaf so every instance lives at a leaf of the dendrogram.
func (dg *dendrogram) splitMixedNodes() {
	n := len(dg.parent)
	for i := 0; i < n; i++ {
		if len(dg.children[i]) == 0 || len(dg.insts[i]) == 0 {
			continue
		}
		id := len(dg.parent)
		dg.parent = append(dg.parent, i)
		dg.level = append(dg.level, 0)
		dg.children = append(dg.children, nil)
		dg.insts = append(dg.insts, dg.insts[i])
		dg.children[i] = append(dg.children[i], id)
		dg.insts[i] = nil
	}
}

func (dg *dendrogram) computeLevels() {
	// BFS from root.
	queue := []int{dg.root}
	dg.level[dg.root] = 0
	dg.levelMax = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range dg.children[v] {
			dg.level[c] = dg.level[v] + 1
			queue = append(queue, c)
		}
		if len(dg.children[v]) == 0 && dg.level[v] > dg.levelMax {
			dg.levelMax = dg.level[v]
		}
	}
}

// levelize replicates shallow leaves (Algorithm 2 lines 7-12) so that every
// leaf sits at levelMax.
func (dg *dendrogram) levelize() {
	n := len(dg.parent)
	for v := 0; v < n; v++ {
		if len(dg.children[v]) != 0 || dg.level[v] >= dg.levelMax {
			continue
		}
		cur := v
		for k := dg.level[v]; k < dg.levelMax; k++ {
			id := len(dg.parent)
			dg.parent = append(dg.parent, cur)
			dg.level = append(dg.level, k+1)
			dg.children = append(dg.children, nil)
			dg.insts = append(dg.insts, dg.insts[cur])
			dg.children[cur] = append(dg.children[cur], id)
			dg.insts[cur] = nil
			cur = id
		}
	}
}

// ancestorAt returns the ancestor of node v at the given level.
func (dg *dendrogram) ancestorAt(v, level int) int {
	for dg.level[v] > level {
		v = dg.parent[v]
	}
	return v
}

// clusteringAtLevel returns the instance->cluster assignment induced by the
// dendrogram nodes at level k. Cluster labels are dendrogram node IDs.
func (dg *dendrogram) clusteringAtLevel(k int) []int {
	assign := make([]int, dg.nInsts)
	for v := range dg.parent {
		if len(dg.insts[v]) == 0 {
			continue
		}
		c := dg.ancestorAt(v, k)
		for _, inst := range dg.insts[v] {
			assign[inst] = c
		}
	}
	return assign
}

// LevelScore is the Rent-criterion value of one dendrogram level.
type LevelScore struct {
	Level int
	RAvg  float64
}

// Result is the outcome of hierarchy-based clustering.
type Result struct {
	Assign   []int        // instance -> cluster label
	Level    int          // selected dendrogram level
	RAvg     float64      // weighted-average Rent exponent at that level
	Scores   []LevelScore // all evaluated levels, ascending level
	Clusters int          // number of distinct clusters
}

// Cluster runs Algorithm 2 end to end on a design: it builds the dendrogram,
// evaluates the Rent criterion at each level in [1, levelMax), and returns
// the best clustering. ok is false for flat designs.
//
// Level 0 (the root: one all-inclusive cluster) carries no information, so
// evaluation starts at level 1; this matches the paper's "level_max - 1
// clusterings".
func Cluster(d *netlist.Design, h *hypergraph.Hypergraph) (Result, bool) {
	dg, ok := build(d)
	if !ok {
		return Result{}, false
	}
	if dg.levelMax < 1 {
		return Result{}, false
	}
	best := Result{RAvg: math.Inf(1), Level: -1}
	for k := 1; k < dg.levelMax || k == 1; k++ {
		assign := dg.clusteringAtLevel(k)
		r := h.WeightedAvgRent(assign)
		best.Scores = append(best.Scores, LevelScore{Level: k, RAvg: r})
		if r < best.RAvg {
			best.RAvg = r
			best.Level = k
			best.Assign = assign
		}
		if dg.levelMax <= 1 {
			break
		}
	}
	if best.Assign == nil {
		return Result{}, false
	}
	best.Clusters = countDistinct(best.Assign)
	return best, true
}

func countDistinct(assign []int) int {
	seen := map[int]bool{}
	for _, c := range assign {
		seen[c] = true
	}
	return len(seen)
}
