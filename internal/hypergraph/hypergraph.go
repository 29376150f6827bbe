// Package hypergraph provides a weighted hypergraph data structure with the
// coarsening and cluster-quality primitives used by netlist clustering.
//
// Vertices are dense integer IDs in [0, NumVertices). Hyperedges are sets of
// vertices with a positive weight. The structure is append-only; coarsening
// produces a new Hypergraph plus the vertex mapping rather than mutating in
// place, so multilevel algorithms can keep the whole hierarchy alive.
//
// Storage is CSR (compressed sparse row): all edge pins live in one flat
// array sliced by edge offsets, and the vertex→edge incidence is a second
// CSR built lazily on first use. Edge and Incident hand out subslices of
// those arrays, so queries allocate nothing and a million-vertex graph costs
// two large allocations instead of one small one per edge and per vertex.
package hypergraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Hypergraph is a weighted hypergraph over dense vertex IDs.
type Hypergraph struct {
	vertexWeight []float64

	// Edge → pin CSR: edge e's vertices are edgePins[edgeStart[e]:edgeStart[e+1]],
	// strictly sorted. len(edgeStart) == NumEdges()+1 always.
	edgeStart  []int32
	edgePins   []int
	edgeWeight []float64

	// Vertex → edge CSR, built lazily by incidence() and retired by any
	// mutation. The atomic pointer makes concurrent reads safe against each
	// other; mutating while readers are active was never supported.
	inc   atomic.Pointer[incidenceCSR]
	incMu sync.Mutex
}

type incidenceCSR struct {
	start []int32
	edges []int // ascending edge IDs per vertex, matching AddEdge order
}

// NewWithCap returns an empty hypergraph with n zero-weight vertices and
// storage pre-sized for the given edge and pin counts, so bulk construction
// (netlist conversion, contraction) does not grow-and-copy the flat arrays.
func NewWithCap(n, edges, pins int) *Hypergraph {
	return &Hypergraph{
		vertexWeight: make([]float64, n),
		edgeStart:    make([]int32, 1, edges+1),
		edgePins:     make([]int, 0, pins),
		edgeWeight:   make([]float64, 0, edges),
	}
}

// NumVertices returns the number of vertices.
func (h *Hypergraph) NumVertices() int { return len(h.vertexWeight) }

// NumEdges returns the number of hyperedges.
func (h *Hypergraph) NumEdges() int { return len(h.edgeWeight) }

// NumPins returns the total number of pins (vertex-edge incidences).
func (h *Hypergraph) NumPins() int { return len(h.edgePins) }

// AddEdge appends a hyperedge over the given vertices and returns its ID.
// Duplicate vertices within one edge are collapsed; the caller's slice is not
// modified. Edges with fewer than two distinct vertices are still stored
// (they occur in real netlists as dangling nets) but carry no connectivity
// information.
func (h *Hypergraph) AddEdge(vertices []int, w float64) int {
	for _, v := range vertices {
		if v < 0 || v >= len(h.vertexWeight) {
			// Same contract as indexing a slice out of range: vertex IDs come
			// from the constructor, so a bad ID is a caller bug, not input data.
			panic(fmt.Sprintf("hypergraph: vertex %d out of range [0,%d)", v, len(h.vertexWeight))) //ppalint:ignore nopanic bounds assertion with slice-indexing semantics, a bad vertex ID is a caller bug
		}
	}
	// Sort-and-compact in the tail of the flat pin array: no per-edge slice.
	base := len(h.edgePins)
	h.edgePins = append(h.edgePins, vertices...)
	win := h.edgePins[base:]
	slices.Sort(win)
	m := 0
	for i, v := range win {
		if i == 0 || v != win[m-1] {
			win[m] = v
			m++
		}
	}
	h.edgePins = h.edgePins[:base+m]
	id := len(h.edgeWeight)
	h.edgeWeight = append(h.edgeWeight, w)
	if len(h.edgePins) > math.MaxInt32 {
		// Same contract as the vertex-bounds assertion above: the int32 pin
		// CSR caps total pins, and exceeding it silently wraps offsets.
		panic(fmt.Sprintf("hypergraph: %d total pins, beyond the %d the int32 pin CSR can index", len(h.edgePins), math.MaxInt32)) //ppalint:ignore nopanic capacity assertion matching the vertex-bounds idiom; AddEdge's signature has no error return
	}
	h.edgeStart = append(h.edgeStart, int32(len(h.edgePins)))
	h.inc.Store(nil)
	return id
}

// VertexWeight returns the weight of vertex v.
func (h *Hypergraph) VertexWeight(v int) float64 { return h.vertexWeight[v] }

// SetVertexWeight sets the weight of vertex v.
func (h *Hypergraph) SetVertexWeight(v int, w float64) { h.vertexWeight[v] = w }

// EdgeWeight returns the weight of edge e.
func (h *Hypergraph) EdgeWeight(e int) float64 { return h.edgeWeight[e] }

// Edge returns the vertices of edge e, strictly sorted. The returned slice is
// a view into the hypergraph's flat pin array and must not be mutated.
func (h *Hypergraph) Edge(e int) []int {
	return h.edgePins[h.edgeStart[e]:h.edgeStart[e+1]]
}

// Incident returns the IDs of edges incident to vertex v, in ascending
// order. The returned slice is a view into the incidence CSR and must not be
// mutated. The CSR is built on first use after a mutation; concurrent
// Incident/Edge reads are safe with each other.
func (h *Hypergraph) Incident(v int) []int {
	inc := h.incidence()
	return inc.edges[inc.start[v]:inc.start[v+1]]
}

// incidence returns the vertex→edge CSR, building it once per topology.
// Double-checked locking: readers take one atomic load in steady state.
func (h *Hypergraph) incidence() *incidenceCSR {
	if inc := h.inc.Load(); inc != nil {
		return inc
	}
	h.incMu.Lock()
	defer h.incMu.Unlock()
	if inc := h.inc.Load(); inc != nil {
		return inc
	}
	n := len(h.vertexWeight)
	start := make([]int32, n+1)
	for _, v := range h.edgePins {
		start[v+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	edges := make([]int, len(h.edgePins))
	fill := make([]int32, n)
	copy(fill, start[:n])
	for e := range h.edgeWeight {
		for k := h.edgeStart[e]; k < h.edgeStart[e+1]; k++ {
			v := h.edgePins[k]
			edges[fill[v]] = e
			fill[v]++
		}
	}
	inc := &incidenceCSR{start: start, edges: edges}
	h.inc.Store(inc)
	return inc
}

// TotalVertexWeight returns the sum of all vertex weights.
func (h *Hypergraph) TotalVertexWeight() float64 {
	var s float64
	for _, w := range h.vertexWeight {
		s += w
	}
	return s
}

// Contraction is the result of contracting a hypergraph under a cluster map.
type Contraction struct {
	// Coarse is the contracted hypergraph.
	Coarse *Hypergraph
	// VertexMap maps each fine vertex to its coarse vertex.
	VertexMap []int
	// EdgeMap maps each fine edge to its coarse edge, or -1 if the edge
	// became internal to a single coarse vertex (or degenerate).
	EdgeMap []int
}

// Densify relabels labels to dense 0..k-1 in first-seen order and returns
// the relabelling and k. Non-negative labels below twice the label count
// (vertex-indexed merge maps and cluster assignments) take a stamp array;
// any others a map, with the same first-seen order.
func Densify(labels []int) ([]int, int) {
	n := len(labels)
	out := make([]int, n)
	k := 0
	minL, maxL := 0, -1
	for i, c := range labels {
		if i == 0 || c < minL {
			minL = c
		}
		if i == 0 || c > maxL {
			maxL = c
		}
	}
	if n > 0 && minL >= 0 && maxL < 2*n {
		seen := make([]int32, maxL+1)
		for i := range seen {
			seen[i] = -1
		}
		for i, c := range labels {
			if seen[c] < 0 {
				seen[c] = int32(k)
				k++
			}
			out[i] = int(seen[c])
		}
		return out, k
	}
	dense := make(map[int]int)
	for i, c := range labels {
		id, ok := dense[c]
		if !ok {
			id = len(dense)
			dense[c] = id
		}
		out[i] = id
	}
	return out, len(dense)
}

// Contract builds the coarse hypergraph induced by clusterOf, which maps each
// vertex to a cluster label (labels need not be dense). Vertex weights are
// summed per cluster. Parallel coarse edges are merged with weights summed;
// edges fully inside one cluster are dropped.
func (h *Hypergraph) Contract(clusterOf []int) (*Contraction, error) {
	if len(clusterOf) != h.NumVertices() {
		return nil, fmt.Errorf("hypergraph: cluster map has %d entries for %d vertices", len(clusterOf), h.NumVertices())
	}
	// Densify labels in first-seen order so results are deterministic.
	vmap, nc := Densify(clusterOf)

	coarse := NewWithCap(nc, h.NumEdges(), h.NumPins())
	for v, cv := range vmap {
		coarse.vertexWeight[cv] += h.vertexWeight[v]
	}

	// Per edge: map the pins through vmap, sort and dedup them, then merge
	// by integer hash (no per-edge string key). Hash buckets hold candidate
	// coarse-edge ids and every hit is confirmed by exact vertex comparison,
	// so hash collisions cannot merge distinct edges, and coarse edges are
	// numbered in the order fine edges first reach them.
	m := h.NumEdges()
	byKey := make(map[uint64][]int)
	emap := make([]int, m)
	var mapped []int // scratch, reused across edges
	for e := 0; e < m; e++ {
		mapped = mapped[:0]
		for _, v := range h.edgePins[h.edgeStart[e]:h.edgeStart[e+1]] {
			mapped = append(mapped, vmap[v])
		}
		slices.Sort(mapped)
		mapped = slices.Compact(mapped)
		if len(mapped) < 2 {
			emap[e] = -1
			continue
		}
		key := hashInts(mapped)
		merged := false
		for _, id := range byKey[key] {
			if equalInts(coarse.Edge(id), mapped) {
				coarse.edgeWeight[id] += h.edgeWeight[e]
				emap[e] = id
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		id := coarse.AddEdge(mapped, h.edgeWeight[e])
		byKey[key] = append(byKey[key], id)
		emap[e] = id
	}
	return &Contraction{Coarse: coarse, VertexMap: vmap, EdgeMap: emap}, nil
}

// hashInts is FNV-1a over the vertex ids, one word at a time, mixed with the
// length. Collisions are tolerated (callers confirm by exact comparison).
func hashInts(vs []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ uint64(len(vs))
	for _, v := range vs {
		h ^= uint64(v)
		h *= prime64
	}
	return h
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// clusterStats describes one cluster's connectivity, the inputs to the Rent
// exponent criterion (Eq. 1 of the paper).
type clusterStats struct {
	Size         int     // |c|: number of vertices
	ExternalEdge int     // E(c): edges crossing the cluster boundary
	ExternalPins int     // Ext(c): pins in c on external edges
	InternalPins int     // Int(c): pins in c on internal edges
	Weight       float64 // sum of vertex weights
}

// rentExponent returns the Rent exponent R_c of the cluster per Eq. 1:
//
//	R_c = ln(E(c) / (Int(c)+Ext(c))) / ln(|c|) + 1
//
// Degenerate clusters (size < 2 or no pins) return NaN; callers treat those
// as "no information" and exclude them from weighted averages.
func (s clusterStats) rentExponent() float64 {
	if s.Size < 2 || s.InternalPins+s.ExternalPins == 0 || s.ExternalEdge == 0 {
		return math.NaN()
	}
	return math.Log(float64(s.ExternalEdge)/float64(s.InternalPins+s.ExternalPins))/math.Log(float64(s.Size)) + 1
}

// clusterStatsFor computes per-cluster connectivity stats for the clustering
// clusterOf (labels need not be dense). The returned map is keyed by label.
// Labels are densified up front so the per-edge pin counting runs on flat
// stamped arrays instead of a map allocation per edge.
func (h *Hypergraph) clusterStatsFor(clusterOf []int) map[int]*clusterStats {
	dense := make(map[int]int)
	labels := make([]int, 0, 64) // dense id -> original label, first-seen order
	cid := make([]int32, len(clusterOf))
	for v, c := range clusterOf {
		id, ok := dense[c]
		if !ok {
			id = len(labels)
			dense[c] = id
			labels = append(labels, c)
		}
		cid[v] = int32(id)
	}
	stats := make([]clusterStats, len(labels))
	for v := range clusterOf {
		s := &stats[cid[v]]
		s.Size++
		s.Weight += h.vertexWeight[v]
	}
	// Per edge: count pins per touched cluster with an edge-stamped scratch.
	seen := make([]int32, len(labels))
	pins := make([]int32, len(labels))
	for i := range seen {
		seen[i] = -1
	}
	var touched []int32
	for e := range h.edgeWeight {
		touched = touched[:0]
		for k := h.edgeStart[e]; k < h.edgeStart[e+1]; k++ {
			c := cid[h.edgePins[k]]
			if seen[c] != int32(e) {
				seen[c] = int32(e)
				pins[c] = 0
				touched = append(touched, c)
			}
			pins[c]++
		}
		external := len(touched) > 1
		for _, c := range touched {
			s := &stats[c]
			if external {
				s.ExternalEdge++
				s.ExternalPins += int(pins[c])
			} else {
				s.InternalPins += int(pins[c])
			}
		}
	}
	out := make(map[int]*clusterStats, len(labels))
	for i, lab := range labels {
		out[lab] = &stats[i]
	}
	return out
}

// WeightedAvgRent computes R_avg per Eq. 1: the size-weighted average of the
// per-cluster Rent exponents. Clusters whose exponent is NaN contribute a
// neutral exponent of 1 (a singleton has no internal structure to reward).
func (h *Hypergraph) WeightedAvgRent(clusterOf []int) float64 {
	stats := h.clusterStatsFor(clusterOf)
	// Accumulate in sorted cluster order: float addition is not associative,
	// and R_avg feeds the clustering objective, so summing in map order would
	// make the result vary run to run.
	ids := make([]int, 0, len(stats))
	for c := range stats {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	var num float64
	total := 0
	for _, c := range ids {
		s := stats[c]
		r := s.rentExponent()
		if math.IsNaN(r) {
			r = 1
		}
		num += r * float64(s.Size)
		total += s.Size
	}
	if total == 0 {
		return math.NaN()
	}
	return num / float64(total)
}

// CutSize returns the total weight of edges spanning more than one cluster.
func (h *Hypergraph) CutSize(clusterOf []int) float64 {
	var cut float64
	for e := range h.edgeWeight {
		verts := h.Edge(e)
		if len(verts) < 2 {
			continue
		}
		first := clusterOf[verts[0]]
		for _, v := range verts[1:] {
			if clusterOf[v] != first {
				cut += h.edgeWeight[e]
				break
			}
		}
	}
	return cut
}

// CliqueExpand converts the hypergraph to a weighted undirected graph using
// standard clique expansion: each hyperedge e contributes weight
// w_e/(|e|-1) to every vertex pair it connects. The result is returned as an
// adjacency list with accumulated weights; used for community detection and
// for cluster-graph features.
func (h *Hypergraph) CliqueExpand() *Graph {
	g := NewGraph(h.NumVertices())
	for e := range h.edgeWeight {
		verts := h.Edge(e)
		k := len(verts)
		if k < 2 {
			continue
		}
		w := h.edgeWeight[e] / float64(k-1)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(verts[i], verts[j], w)
			}
		}
	}
	g.Finish()
	return g
}
