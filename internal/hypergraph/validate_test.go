package hypergraph

import "fmt"

// Validate checks internal consistency and returns an error describing the
// first violation found.
func (h *Hypergraph) Validate() error {
	if len(h.edgeStart) != h.NumEdges()+1 || h.edgeStart[0] != 0 {
		return fmt.Errorf("edge offset array has %d entries for %d edges", len(h.edgeStart), h.NumEdges())
	}
	if int(h.edgeStart[h.NumEdges()]) != len(h.edgePins) {
		return fmt.Errorf("edge offsets end at %d but pin array has %d entries", h.edgeStart[h.NumEdges()], len(h.edgePins))
	}
	for e := range h.edgeWeight {
		if h.edgeStart[e] > h.edgeStart[e+1] {
			return fmt.Errorf("edge %d has negative extent", e)
		}
		verts := h.Edge(e)
		for i, v := range verts {
			if v < 0 || v >= h.NumVertices() {
				return fmt.Errorf("edge %d references vertex %d out of range", e, v)
			}
			if i > 0 && verts[i-1] >= v {
				return fmt.Errorf("edge %d vertices not strictly sorted", e)
			}
		}
	}
	inc := h.incidence()
	for v := 0; v < h.NumVertices(); v++ {
		for _, e := range inc.edges[inc.start[v]:inc.start[v+1]] {
			if e < 0 || e >= h.NumEdges() {
				return fmt.Errorf("vertex %d lists edge %d out of range", v, e)
			}
			found := false
			for _, u := range h.Edge(e) {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("vertex %d lists edge %d but edge does not contain it", v, e)
			}
		}
	}
	return nil
}
