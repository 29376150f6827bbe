package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Paper reference values (DAC 2024, Tables 2-6 and Section 4.4), embedded so
// the generated report can show paper-vs-measured side by side.

// paperTable2 maps design -> [blobHPWL, blobCPU, oursHPWL, oursCPU].
var paperTable2 = map[string][4]float64{
	"aes":           {1.007, 1.567, 1.000, 0.802},
	"jpeg":          {0.973, 1.000, 1.011, 0.524},
	"ariane":        {1.046, 0.931, 0.989, 0.604},
	"BlackParrot":   {0.996, 1.824, 0.989, 0.738},
	"MegaBoom":      {0, 0, 0.997, 0.664}, // [9] reported NA
	"MemPool Group": {0, 0, 1.001, 0.533},
}

// paperPPA maps table -> design -> flow -> [rWL, WNSps, TNSns, PowerW].
var paperTable3 = map[string]map[string][4]float64{
	"aes":         {"Default": {1.00, -220, -32.08, 0.296}, "Ours": {0.98, -210, -31.85, 0.294}},
	"jpeg":        {"Default": {1.00, -410, -130.45, 0.441}, "Ours": {0.95, -470, -177.73, 0.438}},
	"ariane":      {"Default": {1.00, -200, -139.21, 0.655}, "Ours": {0.99, -100, -14.21, 0.661}},
	"BlackParrot": {"Default": {1.00, -410, -1441.24, 4.93}, "Ours": {0.99, -150, -563.69, 4.91}},
}

var paperTable4 = map[string]map[string][4]float64{
	"aes":           {"Default": {1.000, -72, -7.94, 0.050}, "Ours": {1.014, -60, -7.37, 0.050}},
	"jpeg":          {"Default": {1.000, -41, -1.17, 0.284}, "Ours": {1.005, -6, -0.06, 0.273}},
	"ariane":        {"Default": {1.000, -97, -52.73, 0.841}, "Ours": {0.998, -80, -39.86, 0.842}},
	"BlackParrot":   {"Default": {1.000, -134, -548.74, 4.492}, "Ours": {0.999, -165, -372.80, 4.481}},
	"MegaBoom":      {"Default": {1.000, -28, -1.34, 1.611}, "Ours": {0.981, -5, -0.014, 1.586}},
	"MemPool Group": {"Default": {1.000, -37, -0.96, 2.671}, "Ours": {0.994, -29, -0.63, 2.679}},
}

var paperTable5 = map[string]map[string][4]float64{
	"aes":    {"Leiden": {0.991, -211, -33.41, 0.295}, "MFC": {1.028, -214, -42.42, 0.311}, "Ours": {0.980, -210, -31.85, 0.294}},
	"jpeg":   {"Leiden": {0.998, -472, -177.82, 0.446}, "MFC": {1.011, -542, -196.42, 0.459}, "Ours": {0.950, -470, -177.73, 0.438}},
	"ariane": {"Leiden": {0.996, -105, -14.29, 0.672}, "MFC": {1.001, -134, -16.28, 0.669}, "Ours": {0.972, -100, -14.21, 0.661}},
}

var paperTable6 = map[string]map[string][4]float64{
	"ariane":   {"Random": {0.992, -94, -59.80, 0.840}, "Uniform": {1.000, -103, -66.12, 0.840}, "V-P&R_ML": {0.977, -80, -39.86, 0.842}},
	"jpeg":     {"Random": {1.010, -11, -0.29, 0.288}, "Uniform": {1.000, -19, -0.33, 0.279}, "V-P&R_ML": {0.996, -6, -0.06, 0.273}},
	"MegaBoom": {"Random": {0.999, -17, -0.71, 1.596}, "Uniform": {1.000, -14, -0.40, 1.601}, "V-P&R_ML": {0.961, -5, -0.014, 1.586}},
}

// paperGNN holds the Section 4.4 reference metrics.
var paperGNN = struct {
	TrainMAE, ValMAE, TestMAE float64
	TrainR2, ValR2, TestR2    float64
	LabelMin, LabelMax        float64
}{0.105, 0.113, 0.131, 0.788, 0.753, 0.638, 0.564, 2.96}

// Claim is one qualitative shape check of the reproduction.
type Claim struct {
	Name     string
	Pass     bool
	Measured string
}

// section is one named part of the evaluation: the bytes `ppa bench -table
// <name>` prints are the bytes the full report holds under that heading.
// A writer runs its experiments, renders them as markdown and returns the
// shape checks it made.
type section struct {
	name  string
	write func(s *Suite, w io.Writer) ([]Claim, error)
}

// sections lists the evaluation in report order.
var sections = []section{
	{"1", (*Suite).writeTable1},
	{"2", (*Suite).writeTable2},
	{"3", (*Suite).writeTable3},
	{"4", (*Suite).writeTable4},
	{"5", (*Suite).writeTable5},
	{"6", (*Suite).writeTable6},
	{"gnn", (*Suite).writeGNN},
	{"figure5", (*Suite).writeFigure5},
	{"runtime", (*Suite).writeRuntime},
	{"ablation", (*Suite).writeAblation},
}

// ParseSection resolves a section name to its writer; the empty name is the
// full report. An unknown name is an error listing the valid ones. It
// touches no design and no file, so a caller can reject a bad name before
// doing either.
func ParseSection(name string) (func(s *Suite, w io.Writer) ([]Claim, error), error) {
	if name == "" {
		return (*Suite).WriteReport, nil
	}
	names := make([]string, len(sections))
	for i, sec := range sections {
		if sec.name == name {
			return sec.write, nil
		}
		names[i] = sec.name
	}
	return nil, fmt.Errorf("unknown section %q (valid: %s)", name, strings.Join(names, "|"))
}

// WriteReport runs the entire evaluation and writes an EXPERIMENTS.md-style
// markdown document recording paper-vs-measured values and shape checks. A
// flow or generation failure aborts the report with the error; partial
// output may already have been written to w.
func (s *Suite) WriteReport(w io.Writer) ([]Claim, error) {
	var claims []Claim
	started := time.Now()
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(w, "Generated by `ppa bench` (suite seed %d, fast=%v); `ppa bench -table <name>` "+
		"prints one section.\n\n", s.Seed, s.Fast)
	fmt.Fprintf(w, "All measured numbers come from the Go reproduction: synthetic "+
		"benchmarks (Table 1 sizes are scaled ~40-100x down from the paper's), "+
		"simulated placement/routing/STA substrate. Normalized columns are "+
		"directly comparable in *shape*; absolute WNS/TNS/power are not.\n\n")
	for _, sec := range sections {
		c, err := sec.write(s, w)
		claims = append(claims, c...)
		if err != nil {
			return claims, err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "## Reproduction shape checks\n\n")
	for _, c := range claims {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "- [%s] %s — %s\n", mark, c.Name, c.Measured)
	}
	fmt.Fprintf(w, "\nTotal evaluation time: %v\n", time.Since(started).Round(time.Millisecond))
	return claims, nil
}

func (s *Suite) writeTable1(w io.Writer) ([]Claim, error) {
	rows, err := s.table1()
	if err != nil {
		return nil, err
	}
	paperInsts := map[string]int{"aes": 15547, "jpeg": 53042, "ariane": 119256,
		"BlackParrot": 768851, "MegaBoom": 1086920, "MemPool Group": 2729729}
	fmt.Fprintf(w, "## Table 1 — benchmark statistics\n\n")
	fmt.Fprintf(w, "| Design | #Insts | #Nets | TCP (ns) | Paper #Insts |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %d | %d | %.2f | %d |\n", r.Design, r.Insts, r.Nets, r.TCPns, paperInsts[r.Design])
	}
	return nil, nil
}

func (s *Suite) writeTable2(w io.Writer) ([]Claim, error) {
	rows, err := s.table2()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Table 2 — post-place HPWL and CPU (normalized to default flow, OpenROAD mode)\n\n")
	fmt.Fprintf(w, "CPU is wall-clock of clustering + seeded placement over the default flow's "+
		"placement, timed one design and one flow at a time with the whole worker budget; "+
		"the runtime breakdown below is the same pass.\n\n")
	fmt.Fprintf(w, "| Design | [9] HPWL | [9] CPU | Ours HPWL | Ours CPU | paper [9] HPWL/CPU | paper Ours HPWL/CPU |\n|---|---|---|---|---|---|---|\n")
	var oursCPUSum, worstHPWL float64
	for _, r := range rows {
		p := paperTable2[r.Design]
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f | %.3f | %.3f/%.3f | %.3f/%.3f |\n",
			r.Design, r.BlobHPWL, r.BlobCPU, r.OursHPWL, r.OursCPU, p[0], p[1], p[2], p[3])
		oursCPUSum += r.OursCPU
		if r.OursHPWL > worstHPWL {
			worstHPWL = r.OursHPWL
		}
	}
	avgCPU := oursCPUSum / float64(len(rows))
	return []Claim{
		{"Table 2: ours reduces placement CPU vs default (avg ratio < 1)", avgCPU < 1,
			fmt.Sprintf("avg CPU ratio %.3f (paper avg 0.64)", avgCPU)},
		{"Table 2: ours keeps HPWL within ~10% of default", worstHPWL <= 1.1,
			fmt.Sprintf("worst ours HPWL ratio %.3f", worstHPWL)},
	}, nil
}

// writeRuntime renders the per-stage columns of the Table-2 pass (the
// paper's repository supplement).
func (s *Suite) writeRuntime(w io.Writer) ([]Claim, error) {
	rows, err := s.table2()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Runtime breakdown of the clustered flow (paper supplement; the Table-2 runs)\n\n")
	fmt.Fprintf(w, "| Design | Clustering | V-P&R/ML shapes | Seed place | Incr. place | Total | Default place |\n|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %v | %v | %v | %v | %v | %v |\n",
			r.Design, r.Cluster.Round(time.Millisecond), r.Shape.Round(time.Millisecond),
			r.SeedPlace.Round(time.Millisecond), r.IncrPlace.Round(time.Millisecond),
			r.Total.Round(time.Millisecond), r.DefaultPlace.Round(time.Millisecond))
	}
	return nil, nil
}

func (s *Suite) writeTable3(w io.Writer) ([]Claim, error) {
	rows, err := s.table3()
	if err != nil {
		return nil, err
	}
	return writeDefaultVsOurs(w, "Table 3 — post-route PPA, OpenROAD (default vs ours)", rows, paperTable3), nil
}

func (s *Suite) writeTable4(w io.Writer) ([]Claim, error) {
	rows, err := s.table4()
	if err != nil {
		return nil, err
	}
	return writeDefaultVsOurs(w, "Table 4 — post-route PPA, Innovus mode (default vs ours)", rows, paperTable4), nil
}

func (s *Suite) writeTable5(w io.Writer) ([]Claim, error) {
	rows, err := s.table5()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Table 5 — clustering ablation (Leiden vs MFC vs ours, OpenROAD)\n\n")
	writePPAMarkdown(w, rows, paperTable5)
	return []Claim{
		claimBetterTNS(rows, "Ours", "MFC", "Table 5: ours beats MFC on TNS (avg)"),
		claimBetterTNS(rows, "Ours", "Leiden", "Table 5: ours at least matches Leiden on TNS (avg)"),
	}, nil
}

func (s *Suite) writeTable6(w io.Writer) ([]Claim, error) {
	rows, err := s.table6()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Table 6 — cluster-shape ablation (Innovus mode; rWL normalized to Uniform)\n\n")
	writePPAMarkdown(w, rows, paperTable6)
	return []Claim{
		claimBetterTNS(rows, "V-P&R_ML", "Uniform", "Table 6: V-P&R_ML beats Uniform shapes on TNS (avg)"),
		claimBetterTNS(rows, "V-P&R_ML", "Random", "Table 6: V-P&R_ML beats Random shapes on TNS (avg)"),
	}, nil
}

func (s *Suite) writeGNN(w io.Writer) ([]Claim, error) {
	rep, err := s.gnnMetrics()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Section 4.4 — GNN model quality\n\n")
	fmt.Fprintf(w, "| Split | MAE | R2 | paper MAE | paper R2 |\n|---|---|---|---|---|\n")
	fmt.Fprintf(w, "| train | %.3f | %.3f | %.3f | %.3f |\n", rep.Train.MAE, rep.Train.R2, paperGNN.TrainMAE, paperGNN.TrainR2)
	fmt.Fprintf(w, "| val | %.3f | %.3f | %.3f | %.3f |\n", rep.Val.MAE, rep.Val.R2, paperGNN.ValMAE, paperGNN.ValR2)
	fmt.Fprintf(w, "| test | %.3f | %.3f | %.3f | %.3f |\n", rep.Test.MAE, rep.Test.R2, paperGNN.TestMAE, paperGNN.TestR2)
	fmt.Fprintf(w, "\nLabels: measured range [%.3f, %.3f], mean %.3f (paper: [%.3f, %.3f], mean 1.703). "+
		"Samples: %d (paper: 31500). Exact-V-P&R/ML speedup: %.1fx, median of %d (paper: ~30x at full design scale). Training time: %v.\n",
		rep.LabelMin, rep.LabelMax, rep.LabelMean, paperGNN.LabelMin, paperGNN.LabelMax,
		rep.Samples, rep.SpeedupX, speedupRuns, rep.TrainTime.Round(time.Millisecond))
	labelSpread := rep.LabelMax - rep.LabelMin
	return []Claim{
		{"Section 4.4: test MAE small relative to label spread (paper: 0.131 over 2.4)",
			labelSpread > 0 && rep.Test.MAE < 0.25*labelSpread,
			fmt.Sprintf("test MAE %.3f over spread %.3f", rep.Test.MAE, labelSpread)},
		{"Section 4.4: test R2 meaningfully positive (paper: 0.638)",
			rep.Test.R2 > 0.2,
			fmt.Sprintf("test R2 %.3f", rep.Test.R2)},
	}, nil
}

func (s *Suite) writeFigure5(w io.Writer) ([]Claim, error) {
	pts, err := s.figure5()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Figure 5 — hyperparameter sweep (normalized post-place HPWL; 1.0 = defaults)\n\n")
	fmt.Fprintf(w, "| Param | x1 | x2 | x3 | x4 | x5 | x6 |\n|---|---|---|---|---|---|---|\n")
	for _, param := range figure5Params {
		fmt.Fprintf(w, "| %s |", param)
		for _, p := range pts {
			if p.Param == param {
				fmt.Fprintf(w, " %.3f |", p.Score)
			}
		}
		fmt.Fprintf(w, "\n")
	}
	return []Claim{{
		"Figure 5: default multipliers near-optimal (no setting beats defaults by >5%)",
		minScore(pts) > 0.95,
		fmt.Sprintf("min normalized score %.3f", minScore(pts))}}, nil
}

// writeAblation renders the extension: per-term ablation of the PPA-aware
// rating.
func (s *Suite) writeAblation(w io.Writer) ([]Claim, error) {
	rows, err := s.ablationClusterTerms()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Extension — PPA-awareness term ablation (not in the paper)\n\n")
	fmt.Fprintf(w, "Each arm disables one ingredient of the PPA-aware clustering "+
		"(hierarchy grouping constraints, timing costs, switching costs); "+
		"'connectivity' disables all three (pure MFC rating). rWL normalized "+
		"to the default flat flow; two-seed averages.\n\n")
	fmt.Fprintf(w, "| Design | Arm | rWL | WNS (ps) | TNS (ns) | Power (W) |\n|---|---|---|---|---|---|\n")
	var fullTNS, connTNS float64
	var fullN, connN int
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %.3f | %.1f | %.3f | %.4f |\n",
			r.Design, r.Arm, r.RWL, r.WNSps, r.TNSns, r.PowerW)
		switch r.Arm {
		case "full":
			fullTNS += r.TNSns
			fullN++
		case "connectivity":
			connTNS += r.TNSns
			connN++
		}
	}
	if fullN == 0 || connN == 0 {
		return nil, nil
	}
	return []Claim{{
		"Ablation: full PPA-aware rating beats connectivity-only (avg TNS)",
		fullTNS/float64(fullN) >= connTNS/float64(connN),
		fmt.Sprintf("full=%.3fns vs connectivity=%.3fns", fullTNS/float64(fullN), connTNS/float64(connN))}}, nil
}

// writeDefaultVsOurs renders a Table-3/4 style comparison and checks that
// ours improves TNS on average with rWL within 10 % of the default flow.
func writeDefaultVsOurs(w io.Writer, title string, rows []ppaRow, paper map[string]map[string][4]float64) []Claim {
	fmt.Fprintf(w, "## %s\n\n", title)
	writePPAMarkdown(w, rows, paper)
	worst := 1.0
	for _, r := range rows {
		if r.Flow == "Ours" && r.RWL > worst {
			worst = r.RWL
		}
	}
	return []Claim{
		claimBetterTNS(rows, "Ours", "Default", title+": ours improves TNS (avg)"),
		{title + ": ours rWL within 10% of default", worst <= 1.10, fmt.Sprintf("worst ours rWL ratio %.3f", worst)},
	}
}

func writePPAMarkdown(w io.Writer, rows []ppaRow, paper map[string]map[string][4]float64) {
	fmt.Fprintf(w, "| Design | Flow | rWL | WNS (ps) | TNS (ns) | Power (W) | paper rWL | paper WNS | paper TNS | paper Power |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		p, ok := paper[r.Design][r.Flow]
		ps := []string{"-", "-", "-", "-"}
		if ok {
			ps = []string{
				fmt.Sprintf("%.3f", p[0]), fmt.Sprintf("%.0f", p[1]),
				fmt.Sprintf("%.2f", p[2]), fmt.Sprintf("%.3f", p[3]),
			}
		}
		fmt.Fprintf(w, "| %s | %s | %.3f | %.1f | %.3f | %.4f | %s | %s | %s | %s |\n",
			r.Design, r.Flow, r.RWL, r.WNSps, r.TNSns, r.PowerW, ps[0], ps[1], ps[2], ps[3])
	}
}

// claimBetterTNS checks that flow a has better (less negative) average TNS
// than flow b across the rows.
func claimBetterTNS(rows []ppaRow, a, b, name string) Claim {
	var sumA, sumB float64
	var nA, nB int
	for _, r := range rows {
		switch r.Flow {
		case a:
			sumA += r.TNSns
			nA++
		case b:
			sumB += r.TNSns
			nB++
		}
	}
	if nA == 0 || nB == 0 {
		return Claim{name, false, "missing rows"}
	}
	avgA, avgB := sumA/float64(nA), sumB/float64(nB)
	return Claim{name, avgA >= avgB,
		fmt.Sprintf("avg TNS %s=%.3fns vs %s=%.3fns", a, avgA, b, avgB)}
}

func minScore(pts []figure5Point) float64 {
	min := 1e18
	for _, p := range pts {
		if p.Score < min {
			min = p.Score
		}
	}
	return min
}
