package experiments

import (
	"testing"
)

// The fast suite shrinks designs and the ML dataset so the whole experiment
// machinery is exercised in seconds; the shape assertions mirror the paper's
// qualitative claims.

// The shape tests share one suite, so the model is trained and each design
// generated once for the package (tests here do not run in parallel, and a
// Suite is not safe for concurrent use).
var sharedSuite *Suite

func fastSuite(t *testing.T) *Suite {
	t.Helper()
	if sharedSuite == nil {
		sharedSuite = NewSuite(true, 7, 4)
	}
	return sharedSuite
}

func TestTable1Shape(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Insts <= 0 || rows[i].Nets <= 0 {
			t.Fatalf("bad row %+v", rows[i])
		}
	}
	if rows[0].Design != "aes" {
		t.Fatalf("first design %s", rows[0].Design)
	}
}

func TestTable2Shape(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// HPWL within a sane band of the default flow.
		if r.OursHPWL < 0.5 || r.OursHPWL > 1.5 {
			t.Fatalf("ours HPWL ratio out of band: %+v", r)
		}
		if r.BlobHPWL < 0.5 || r.BlobHPWL > 1.8 {
			t.Fatalf("blob HPWL ratio out of band: %+v", r)
		}
		if r.OursCPU <= 0 || r.BlobCPU <= 0 {
			t.Fatalf("CPU ratios must be positive: %+v", r)
		}
	}
}

func TestTable3And4Shape(t *testing.T) {
	s := fastSuite(t)
	t3, err := s.table3()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := s.table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]ppaRow{t3, t4} {
		if len(rows)%2 != 0 || len(rows) == 0 {
			t.Fatalf("row count %d", len(rows))
		}
		for i := 0; i < len(rows); i += 2 {
			def, ours := rows[i], rows[i+1]
			if def.Flow != "Default" || ours.Flow != "Ours" {
				t.Fatalf("unexpected flow labels %s/%s", def.Flow, ours.Flow)
			}
			if def.RWL != 1.0 {
				t.Fatalf("default rWL should normalize to 1, got %v", def.RWL)
			}
			if ours.RWL < 0.5 || ours.RWL > 1.5 {
				t.Fatalf("ours rWL out of band: %+v", ours)
			}
			if def.WNSps > 0 || ours.WNSps > 0 {
				t.Fatalf("WNS must be <= 0: %+v %+v", def, ours)
			}
			if def.PowerW <= 0 || ours.PowerW <= 0 {
				t.Fatalf("power must be positive")
			}
		}
	}
}

func TestTable5Shape(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)%3 != 0 || len(rows) == 0 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i := 0; i < len(rows); i += 3 {
		labels := []string{rows[i].Flow, rows[i+1].Flow, rows[i+2].Flow}
		want := []string{"Leiden", "MFC", "Ours"}
		for j := range want {
			if labels[j] != want[j] {
				t.Fatalf("labels %v", labels)
			}
		}
	}
}

func TestTable6Shape(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)%3 != 0 || len(rows) == 0 {
		t.Fatalf("rows=%d", len(rows))
	}
	for i := 0; i < len(rows); i += 3 {
		uniform := rows[i+1]
		if uniform.Flow != "Uniform" || uniform.RWL != 1.0 {
			t.Fatalf("uniform normalization broken: %+v", uniform)
		}
	}
}

func TestGNNMetrics(t *testing.T) {
	s := fastSuite(t)
	rep, err := s.gnnMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples == 0 {
		t.Fatal("no samples")
	}
	if rep.Train.N == 0 || rep.Test.N == 0 {
		t.Fatalf("empty splits: %+v", rep)
	}
	if rep.Train.MAE <= 0 {
		t.Fatal("MAE should be positive")
	}
	if rep.LabelMax <= rep.LabelMin {
		t.Fatalf("label range: [%v, %v]", rep.LabelMin, rep.LabelMax)
	}
	// MAE should be clearly smaller than the label spread (paper: 0.131 on
	// a [0.564, 2.96] range).
	if rep.Test.MAE > (rep.LabelMax-rep.LabelMin)*0.8 {
		t.Fatalf("test MAE %v vs label range [%v,%v]", rep.Test.MAE, rep.LabelMin, rep.LabelMax)
	}
	// At the shrunken fast-suite scale a mini-P&R can be cheaper than a GNN
	// forward pass; the crossover to the paper's ~30x speedup needs
	// full-size clusters, so here we only require the ratio to be recorded.
	if rep.SpeedupX <= 0 {
		t.Fatalf("speedup not measured: %vx", rep.SpeedupX)
	}
}

func TestFigure5Shape(t *testing.T) {
	s := fastSuite(t)
	pts, err := s.figure5()
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{}
	for _, p := range pts {
		params[p.Param]++
		if p.Score < 0.5 || p.Score > 2.0 {
			t.Fatalf("score out of band: %+v", p)
		}
	}
	for _, want := range []string{"alpha", "beta", "gamma", "mu"} {
		if params[want] == 0 {
			t.Fatalf("missing param %s", want)
		}
	}
	// Multiplier 1 equals the default configuration -> score 1.0 by
	// definition for alpha (defaults are all-1).
	for _, p := range pts {
		if p.Param == "alpha" && p.Multiplier == 1 && (p.Score < 0.999 || p.Score > 1.001) {
			t.Fatalf("alpha x1 should be the baseline: %+v", p)
		}
	}
}

func TestBenchCaching(t *testing.T) {
	s := fastSuite(t)
	b1, err := s.bench("aes")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.bench("aes")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("bench not cached")
	}
	if _, err := s.bench("no-such-design"); err == nil {
		t.Fatal("unknown design must return an error")
	}
}

func TestAblationClusterTerms(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.ablationClusterTerms()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows)%5 != 0 || len(rows) == 0 {
		t.Fatalf("rows=%d", len(rows))
	}
	arms := map[string]bool{}
	for _, r := range rows {
		arms[r.Arm] = true
		if r.RWL <= 0 || r.PowerW <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.TNSns > 0 || r.WNSps > 0 {
			t.Fatalf("slacks must be <= 0: %+v", r)
		}
	}
	for _, want := range []string{"full", "no-hierarchy", "no-timing", "no-switching", "connectivity"} {
		if !arms[want] {
			t.Fatalf("missing arm %s", want)
		}
	}
}

// TestRuntimeBreakdown: the per-stage columns are part of the Table-2 pass,
// so the breakdown and the CPU ratio of a row are one measurement.
func TestRuntimeBreakdown(t *testing.T) {
	s := fastSuite(t)
	rows, err := s.table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Total <= 0 || r.DefaultPlace <= 0 {
			t.Fatalf("bad durations: %+v", r)
		}
		if r.Total < r.Cluster+r.SeedPlace+r.IncrPlace {
			t.Fatalf("total must include clustering and both placements: %+v", r)
		}
		if got := float64(r.Total) / float64(r.DefaultPlace); r.OursCPU != got {
			t.Fatalf("CPU ratio %v is not Total/DefaultPlace = %v: %+v", r.OursCPU, got, r)
		}
	}
	again, err := s.table2()
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &rows[0] {
		t.Fatal("a second Table2 call re-timed the flows: the report's two sections would disagree")
	}
}
