package main

import (
	"runtime"
	"time"
)

// span is one timed call into a layer (or a grouping parent). Spans of one
// design share its root; self time is duration minus the children's.
type span struct {
	ID         int                `json:"id"`
	Parent     int                `json:"parent"` // -1 for a design's root
	Workload   string             `json:"workload"`
	Design     string             `json:"design"`
	Layer      string             `json:"layer"`
	Name       string             `json:"name"`
	StartNs    int64              `json:"start_ns"`
	EndNs      int64              `json:"end_ns"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Mallocs    uint64             `json:"mallocs"`
	Counts     map[string]float64 `json:"counts,omitempty"`
}

func (s *span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory; the caller writes them out at exit.
type tracer struct {
	workload string
	design   string
	epoch    time.Time
	spans    []span
	open     []int // stack of open span IDs
	// attributed sums the leaf spans run while attribute is set: the
	// clustered-side layer time that flow.unattributed_s is measured against.
	// Leaf spans run while it is clear (the other shape engine) sum into
	// unattributed.
	attribute    bool
	attributed   float64
	unattributed float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(layer, name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.open = append(t.open, id)
	// The allocation fields hold the counters at entry until end subtracts.
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload,
		Design: t.design, Layer: layer, Name: name,
		AllocBytes: ms.TotalAlloc, Mallocs: ms.Mallocs})
	t.spans[id].StartNs = time.Since(t.epoch).Nanoseconds()
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) *span {
	s := &t.spans[id]
	s.EndNs = time.Since(t.epoch).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	s.Mallocs = ms.Mallocs - s.Mallocs
	t.open = t.open[:len(t.open)-1]
	return s
}

// do runs fn as a leaf span of the named layer.
func (t *tracer) do(layer, name string, fn func()) *span {
	id := t.begin(layer, name)
	fn()
	s := t.end(id)
	if t.attribute {
		t.attributed += s.seconds()
	} else {
		t.unattributed += s.seconds()
	}
	return s
}

// count attaches an exact count to a span.
func (s *span) count(key string, v float64) {
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// sumByName totals the duration and the allocation of the spans with one
// name.
func sumByName(spans []span, name string) (sec, allocMB float64) {
	for i := range spans {
		if spans[i].Name == name {
			sec += spans[i].seconds()
			allocMB += float64(spans[i].AllocBytes) / (1 << 20)
		}
	}
	return sec, allocMB
}

// sumCount totals one count key over the spans with one name.
func sumCount(spans []span, name, key string) float64 {
	var v float64
	for i := range spans {
		if spans[i].Name == name {
			v += spans[i].Counts[key]
		}
	}
	return v
}
