// External test package: designs imports sta for its constraints type, so
// an in-package test could not generate a benchmark without a cycle.
package sta_test

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/sta"
)

// TestNetSlackIntoReusesBuffer checks the reuse path bit-for-bit against a
// fresh allocation, including capacity-growth and reuse cases.
func TestNetSlackIntoReusesBuffer(t *testing.T) {
	b := designs.Generate(designs.TinySpec(21))
	a := sta.New(b.Design, b.Cons)
	want := a.NetSlackInto(nil)

	// A short dst grows, an oversized dst reuses its backing.
	for _, dst := range [][]float64{make([]float64, 2), make([]float64, len(want)+16)} {
		got := a.NetSlackInto(dst)
		if len(got) != len(want) {
			t.Fatalf("len=%d want %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("net %d slack %v != %v", i, got[i], want[i])
			}
		}
	}
}

// TestNetSlackIntoAllocFree gates the fix for NetSlack allocating on every
// call: with a warm analyzer and a capacious destination, repeated slack
// extraction must not allocate.
func TestNetSlackIntoAllocFree(t *testing.T) {
	b := designs.Generate(designs.TinySpec(22))
	a := sta.New(b.Design, b.Cons)
	dst := a.NetSlackInto(nil) // warm: analyzer run + full-size buffer
	avg := testing.AllocsPerRun(50, func() {
		dst = a.NetSlackInto(dst)
	})
	if avg != 0 {
		t.Fatalf("NetSlackInto allocates %.1f times per call, want 0", avg)
	}
}
