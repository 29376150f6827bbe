// Package features extracts the cluster-graph features the paper's GNN
// consumes (Section 3.2): two design parameters (floorplan utilization and
// aspect ratio), seventeen cluster-level features and nine cell-level
// features (with cell type expanded one-hot), for a total node-vector
// dimension of 35 matching the model's input layer.
//
// Expensive exact graph metrics (betweenness, all-pairs distances) switch to
// deterministic source sampling above a size threshold, mirroring how the
// paper's feature extraction remains tractable on large clusters.
package features

import (
	"math"
	"math/rand"
	"sort"

	"ppaclust/internal/netlist"
)

// Dim is the GNN node-feature dimension (2 design + 17 cluster + 8 cell
// scalars + 8 one-hot cell type).
const Dim = 35

// numCellTypes is the size of the cell-type one-hot encoding.
const numCellTypes = 8

// Options controls feature extraction.
type Options struct {
	// SampleCap bounds exact all-pairs computations; larger graphs use this
	// many sampled BFS sources. Default 128.
	SampleCap int
	// Seed drives source sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.SampleCap <= 0 {
		o.SampleCap = 128
	}
	return o
}

// Features holds extracted values for one cluster sub-netlist.
type Features struct {
	// Cluster-level (17).
	NumCells         int
	NumNets          int
	NumPins          int
	NetsFanout5to10  int
	NetsFanoutGT10   int
	InternalNets     int
	BorderNets       int
	TotalCellArea    float64
	AvgCellDegree    float64
	AvgNetDegree     float64
	AvgClustering    float64
	Density          float64
	Diameter         float64
	Radius           float64
	EdgeConnectivity float64
	GreedyColors     int
	GlobalEfficiency float64

	// Cell-level, indexed by instance ID within the sub-design.
	CellArea       []float64
	CellDegree     []float64
	AvgNbrDegree   []float64
	Betweenness    []float64
	Closeness      []float64
	DegreeCentral  []float64
	ClusteringCoef []float64
	Eccentricity   []float64
	CellType       []int
}

// cellTypeIndex maps a master to its one-hot slot.
func cellTypeIndex(m *netlist.Master) int {
	name := m.Name
	switch {
	case hasPrefix(name, "INV"):
		return 0
	case hasPrefix(name, "BUF"), hasPrefix(name, "CLKBUF"):
		return 1
	case hasPrefix(name, "NAND"):
		return 2
	case hasPrefix(name, "NOR"):
		return 3
	case hasPrefix(name, "AND"), hasPrefix(name, "OR"):
		return 4
	case hasPrefix(name, "XOR"), hasPrefix(name, "XNOR"):
		return 5
	case hasPrefix(name, "MUX"), hasPrefix(name, "AOI"), hasPrefix(name, "OAI"):
		return 6
	default: // DFF, macros, everything sequential or unknown
		return 7
	}
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// Extract computes all features of a cluster sub-netlist.
func Extract(sub *netlist.Design, opt Options) *Features {
	opt = opt.withDefaults()
	n := len(sub.Insts)
	f := &Features{
		NumCells:       n,
		NumNets:        len(sub.Nets),
		CellArea:       make([]float64, n),
		CellDegree:     make([]float64, n),
		AvgNbrDegree:   make([]float64, n),
		Betweenness:    make([]float64, n),
		Closeness:      make([]float64, n),
		DegreeCentral:  make([]float64, n),
		ClusteringCoef: make([]float64, n),
		Eccentricity:   make([]float64, n),
		CellType:       make([]int, n),
	}
	if n == 0 {
		return f
	}

	// Net-derived counts.
	var pinSum, netDegSum int
	for _, net := range sub.Nets {
		pins := len(net.Pins)
		pinSum += pins
		netDegSum += pins
		fan := pins - 1
		if fan >= 5 && fan <= 10 {
			f.NetsFanout5to10++
		}
		if fan > 10 {
			f.NetsFanoutGT10++
		}
		border := false
		for _, pr := range net.Pins {
			if pr.IsPort() {
				border = true
				break
			}
		}
		if border {
			f.BorderNets++
		} else {
			f.InternalNets++
		}
	}
	f.NumPins = pinSum
	if len(sub.Nets) > 0 {
		f.AvgNetDegree = float64(netDegSum) / float64(len(sub.Nets))
	}

	// Adjacency via clique expansion (unweighted, deduplicated).
	adj := buildAdjacency(sub)
	var degSum float64
	var edges int
	cm := sub.Compact()
	for i, inst := range sub.Insts {
		f.CellArea[i] = inst.Master.Area()
		f.CellType[i] = cellTypeIndex(inst.Master)
		f.CellDegree[i] = float64(cm.InstStart[inst.ID+1] - cm.InstStart[inst.ID])
		degSum += f.CellDegree[i]
		edges += len(adj[i])
	}
	edges /= 2
	f.AvgCellDegree = degSum / float64(n)
	f.TotalCellArea = sub.TotalCellArea()
	if n > 1 {
		f.Density = 2 * float64(edges) / (float64(n) * float64(n-1))
	}
	for i := range adj {
		f.DegreeCentral[i] = float64(len(adj[i]))
		if n > 1 {
			f.DegreeCentral[i] /= float64(n - 1)
		}
	}
	f.computeNeighborhoodDegree(adj)
	f.computeClustering(adj)
	f.computeDistancesAndBetweenness(adj, opt)
	f.EdgeConnectivity = edgeConnectivityApprox(adj)
	f.GreedyColors = greedyColoring(adj)
	return f
}

// buildAdjacency returns the deduplicated neighbor lists of the cell graph.
func buildAdjacency(sub *netlist.Design) [][]int {
	n := len(sub.Insts)
	adj := make([][]int, n)
	seen := make([]map[int]bool, n)
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	for _, net := range sub.Nets {
		var members []int
		for _, pr := range net.Pins {
			if !pr.IsPort() {
				members = append(members, pr.Inst)
			}
		}
		if len(members) > 64 {
			continue // huge nets (clock) carry no locality
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				u, v := members[a], members[b]
				if u == v || seen[u][v] {
					continue
				}
				seen[u][v] = true
				seen[v][u] = true
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}

func (f *Features) computeNeighborhoodDegree(adj [][]int) {
	for i, nbrs := range adj {
		if len(nbrs) == 0 {
			continue
		}
		var s float64
		for _, u := range nbrs {
			s += float64(len(adj[u]))
		}
		f.AvgNbrDegree[i] = s / float64(len(nbrs))
	}
}

func (f *Features) computeClustering(adj [][]int) {
	n := len(adj)
	var total float64
	mark := make([]bool, n)
	for i, nbrs := range adj {
		d := len(nbrs)
		if d < 2 {
			continue
		}
		for _, u := range nbrs {
			mark[u] = true
		}
		triangles := 0
		for _, u := range nbrs {
			for _, w := range adj[u] {
				if w > u && mark[w] {
					triangles++
				}
			}
		}
		for _, u := range nbrs {
			mark[u] = false
		}
		f.ClusteringCoef[i] = 2 * float64(triangles) / (float64(d) * float64(d-1))
		total += f.ClusteringCoef[i]
	}
	if n > 0 {
		f.AvgClustering = total / float64(n)
	}
}

// computeDistancesAndBetweenness runs (possibly sampled) Brandes' algorithm,
// filling closeness, eccentricity, diameter, radius, global efficiency and
// betweenness in one pass.
func (f *Features) computeDistancesAndBetweenness(adj [][]int, opt Options) {
	n := len(adj)
	sources := make([]int, 0, n)
	if n <= opt.SampleCap {
		for i := 0; i < n; i++ {
			sources = append(sources, i)
		}
	} else {
		rng := rand.New(rand.NewSource(opt.Seed + 99))
		perm := rng.Perm(n)
		sources = perm[:opt.SampleCap]
		sort.Ints(sources)
	}
	scale := float64(n) / float64(len(sources))

	dist := make([]int, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	queue := make([]int, 0, n)
	order := make([]int, 0, n)
	preds := make([][]int, n)

	var effSum float64
	var effPairs int
	radius := math.Inf(1)
	ecc := f.Eccentricity
	diameter := 0.0
	closenessSum := make([]float64, n)
	closenessCnt := make([]int, n)

	for _, s := range sources {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		dist[s] = 0
		sigma[s] = 1
		queue = queue[:0]
		order = order[:0]
		queue = append(queue, s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		// Distance-derived metrics from this source.
		maxD := 0
		var sum float64
		reach := 0
		for i := 0; i < n; i++ {
			if dist[i] <= 0 {
				continue
			}
			d := float64(dist[i])
			sum += d
			reach++
			effSum += 1 / d
			effPairs++
			if dist[i] > maxD {
				maxD = dist[i]
			}
			closenessSum[i] += d
			closenessCnt[i]++
		}
		if reach > 0 {
			ecc[s] = float64(maxD)
			if ecc[s] > diameter {
				diameter = ecc[s]
			}
			if ecc[s] < radius {
				radius = ecc[s]
			}
		}
		_ = sum
		// Brandes back-propagation.
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				f.Betweenness[w] += delta[w] * scale
			}
		}
	}
	// Closeness: reachable-count-normalized (Wasserman-Faust style).
	for i := 0; i < n; i++ {
		if closenessSum[i] > 0 {
			f.Closeness[i] = float64(closenessCnt[i]) / closenessSum[i]
		}
	}
	// For non-source vertices under sampling, eccentricity stays 0; fill
	// with the sampled diameter as a conservative default.
	for i := range ecc {
		if ecc[i] == 0 && len(adj[i]) > 0 {
			ecc[i] = diameter
		}
	}
	f.Diameter = diameter
	if math.IsInf(radius, 1) {
		radius = 0
	}
	f.Radius = radius
	if effPairs > 0 && len(adj) > 1 {
		f.GlobalEfficiency = effSum / float64(effPairs)
	}
	// Normalize betweenness by the ordered-pair count (matching networkx's
	// normalized undirected convention: sum/2 * 2/((n-1)(n-2))).
	if n > 2 {
		norm := float64((n - 1) * (n - 2))
		for i := range f.Betweenness {
			f.Betweenness[i] /= norm
		}
	}
}

// edgeConnectivityApprox uses the minimum degree as the (upper-bound)
// approximation of edge connectivity; exact max-flow-based connectivity is
// out of proportion for a feature with this little model weight.
func edgeConnectivityApprox(adj [][]int) float64 {
	if len(adj) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, nbrs := range adj {
		if float64(len(nbrs)) < min {
			min = float64(len(nbrs))
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// greedyColoring colors vertices in descending-degree order (Welsh-Powell)
// and returns the number of colors used.
func greedyColoring(adj [][]int) int {
	n := len(adj)
	if n == 0 {
		return 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if len(adj[order[a]]) != len(adj[order[b]]) {
			return len(adj[order[a]]) > len(adj[order[b]])
		}
		return order[a] < order[b]
	})
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	maxColor := 0
	used := map[int]bool{}
	for _, v := range order {
		for k := range used {
			delete(used, k)
		}
		for _, u := range adj[v] {
			if color[u] >= 0 {
				used[color[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		color[v] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
	}
	return maxColor
}

// NodeVec writes the 35-dim feature vector of cell i at the given candidate
// shape into out (length Dim).
func (f *Features) NodeVec(i int, aspectRatio, utilization float64, out []float64) {
	_ = out[Dim-1]
	out[0] = utilization
	out[1] = aspectRatio
	out[2] = float64(f.NumCells)
	out[3] = float64(f.NumNets)
	out[4] = float64(f.NumPins)
	out[5] = float64(f.NetsFanout5to10)
	out[6] = float64(f.NetsFanoutGT10)
	out[7] = float64(f.InternalNets)
	out[8] = float64(f.BorderNets)
	out[9] = f.TotalCellArea
	out[10] = f.AvgCellDegree
	out[11] = f.AvgNetDegree
	out[12] = f.AvgClustering
	out[13] = f.Density
	out[14] = f.Diameter
	out[15] = f.Radius
	out[16] = f.EdgeConnectivity
	out[17] = float64(f.GreedyColors)
	out[18] = f.GlobalEfficiency
	out[19] = f.CellArea[i]
	out[20] = f.CellDegree[i]
	out[21] = f.AvgNbrDegree[i]
	out[22] = f.Betweenness[i]
	out[23] = f.Closeness[i]
	out[24] = f.DegreeCentral[i]
	out[25] = f.ClusteringCoef[i]
	out[26] = f.Eccentricity[i]
	for t := 0; t < numCellTypes; t++ {
		out[27+t] = 0
	}
	out[27+f.CellType[i]] = 1
}
