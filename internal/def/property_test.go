package def

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"ppaclust/internal/designs"
	"ppaclust/internal/place"
)

// TestPropertyRoundTripManySeeds checks DEF write->parse equivalence on
// placed designs across seeds: geometry within DBU rounding, connectivity
// counts exact.
func TestPropertyRoundTripManySeeds(t *testing.T) {
	f := func(seed int64) bool {
		spec := designs.TinySpec(2000 + seed%13)
		spec.TargetInsts = 150
		b := designs.Generate(spec)
		place.Global(b.Design, place.Options{Seed: seed})
		var buf bytes.Buffer
		if err := Write(&buf, b.Design); err != nil {
			return false
		}
		got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), b.Design.Lib, Options{})
		if err != nil {
			return false
		}
		if len(got.Insts) != len(b.Design.Insts) || len(got.Nets) != len(b.Design.Nets) {
			return false
		}
		ix := indexNames(got)
		for _, inst := range b.Design.Insts {
			ri := ix.insts[inst.Name]
			if ri == nil {
				return false
			}
			if math.Abs(ri.X-inst.X) > 1e-3 || math.Abs(ri.Y-inst.Y) > 1e-3 {
				return false
			}
		}
		// Core geometry survives via the summary ROW.
		if math.Abs(got.Core.W()-b.Design.Core.W()) > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
