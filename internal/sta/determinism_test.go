// External equivalence tests on generated designs (internal/designs imports
// sta, so these live in package sta_test to avoid an import cycle).
package sta_test

import (
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/sta"
)

// TestAnalyzerWorkersEquivalent asserts the determinism contract on full
// generated benchmarks: per-net slacks, the timing summary and net activity
// are bit-identical between Workers=1 and Workers=8, placed or not.
func TestAnalyzerWorkersEquivalent(t *testing.T) {
	for _, name := range []string{"aes", "jpeg"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := designs.Named(name)
			if !ok {
				t.Fatalf("unknown design %s", name)
			}
			spec.TargetInsts = 800
			b := designs.Generate(spec)

			seq := sta.New(b.Design, b.Cons)
			seq.Workers = 1
			pp := sta.New(b.Design, b.Cons)
			pp.Workers = 8
			seq.Run()
			pp.Run()

			ss, ps := seq.NetSlackInto(nil), pp.NetSlackInto(nil)
			if len(ss) != len(ps) {
				t.Fatal("net slack length mismatch")
			}
			for i := range ss {
				if math.Float64bits(ss[i]) != math.Float64bits(ps[i]) {
					t.Fatalf("net %d slack %v (seq) vs %v (par)", i, ss[i], ps[i])
				}
			}
			st, pt := seq.Timing(), pp.Timing()
			if math.Float64bits(st.WNS) != math.Float64bits(pt.WNS) ||
				math.Float64bits(st.TNS) != math.Float64bits(pt.TNS) ||
				st.Endpoints != pt.Endpoints || st.Failing != pt.Failing {
				t.Fatalf("summary differs: seq %+v par %+v", st, pt)
			}
			sa, pa := seq.NetActivity(), pp.NetActivity()
			for i := range sa {
				if math.Float64bits(sa[i]) != math.Float64bits(pa[i]) {
					t.Fatalf("net %d activity %v (seq) vs %v (par)", i, sa[i], pa[i])
				}
			}
		})
	}
}
