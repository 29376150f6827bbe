// Command benchmark is the repository's end-to-end benchmark: the clustered
// flow (Algorithm 1) against the default flow, from files, on four
// workloads. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (BENCHMARK.json's command)
//	benchmark [-seed N] [-workload W] [-reps R] [-out results.json] [-trace-out trace.json]   the whole suite
//	benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childOutput is what a suite child hands back to its parent.
type childOutput struct {
	Result workloadResult `json:"result"`
	Spans  []span         `json:"spans"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Int64("seed", 1, "benchmark seed: designs and flow seeds derive from it")
	seconds := fs.Float64("seconds", 0, "measure one workload for this long in this process and print one JSON line")
	trace := fs.Int("trace", 0, "with -seconds: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced replay")
	reps := fs.Int("reps", 0, "suite: untraced repetitions per workload (default: the workload's own)")
	out := fs.String("out", "results.json", "suite: results file")
	traceOut := fs.String("trace-out", "trace.json", "suite: span file")
	smoke := fs.Bool("smoke", false, "2k-cell designs, aes only, one repetition")
	compare := fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
	child := fs.Bool("child", false, "internal: run one workload of the suite and write its result to -out")
	workDir := fs.String("workdir", ".bench_build/work", "directory for generated design files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// Every kernel, including those that size themselves from GOMAXPROCS,
	// works inside one worker budget.
	workers := resolveWorkers()
	fp := newFingerprint(*seed, *reps, workers, *smoke)
	runtime.GOMAXPROCS(workers)

	selected := workloads
	if *name != "" && *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	cfg := config{Seed: *seed, Smoke: *smoke, Workers: workers, WorkDir: *workDir}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	switch {
	case *seconds > 0:
		// BENCHMARK.json's command: one workload in this process, one line.
		if len(selected) != 1 {
			fmt.Fprintln(stderr, "benchmark: -seconds needs -workload")
			return 2
		}
		cfg.Workload, cfg.Seconds, cfg.Trace = selected[0], *seconds, *trace == 1
		if cfg.Trace {
			cfg.Reps = 1 // the replay needs one untraced repetition to compare with
		}
		res, _, err := runWorkload(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", cfg.Workload.Name, err))
		}
		printResult(stderr, res)
		return printDriverLine(stdout, res, cfg.Trace)

	case *child:
		cfg.Workload, cfg.Reps, cfg.Trace = selected[0], *reps, true
		if cfg.Reps == 0 {
			cfg.Reps = cfg.Workload.Reps
		}
		if cfg.Smoke {
			cfg.Reps = 1
		}
		res, spans, err := runWorkload(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", cfg.Workload.Name, err))
		}
		if err := writeJSON(*out, childOutput{Result: *res, Spans: spans}); err != nil {
			return fail(err)
		}
		return 0
	}

	// Suite: one re-exec'd child per workload, strictly one at a time, so
	// each workload's peak memory is its own.
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return fail(err)
	}
	results := resultsFile{Fingerprint: fp}
	traces := traceFile{Fingerprint: fp}
	failed := false
	for _, w := range selected {
		co, err := runChild(exe, w.Name, *seed, *reps, *smoke, *workDir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			failed = true
			continue
		}
		printResult(stdout, &co.Result)
		results.Workloads = append(results.Workloads, co.Result)
		traces.Spans = append(traces.Spans, co.Spans...)
		failed = failed || co.Result.Failed > 0
	}
	if err := writeJSON(*out, results); err != nil {
		return fail(err)
	}
	if err := writeJSON(*traceOut, traces); err != nil {
		return fail(err)
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload of the suite in a child process and reads its
// result back through a file in workDir.
func runChild(exe, name string, seed int64, reps int, smoke bool, workDir string, stderr io.Writer) (childOutput, error) {
	var co childOutput
	tmp, err := os.CreateTemp(workDir, name+"-*.json")
	if err != nil {
		return co, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(seed),
		"-reps", fmt.Sprint(reps), "-out", tmp.Name(), "-workdir", workDir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return co, err
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return co, err
	}
	return co, json.Unmarshal(data, &co)
}

// printResult prints every metric of one workload by name with its unit,
// median, quartiles and sample count.
func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s  seed %d  reps %d  operations attempted %d failed %d\n",
		r.Workload, r.Seed, r.Reps, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, m := range r.EndToEnd {
		fmt.Fprintf(w, "   %-26s %14.6g %-6s  q1 %.6g  q3 %.6g  n %d\n", m.Name, m.Median, m.Unit, m.Q1, m.Q3, m.N)
	}
	for _, m := range r.PerLayer {
		fmt.Fprintf(w, "   %-26s %14.6g %s\n", m.Name, m.Median, m.Unit)
	}
}

// printDriverLine prints the one JSON object BENCHMARK.json's driver reads:
// the end-to-end metrics that hold across seeds, or from a traced run the
// per-seed quality numbers and every per-layer metric.
func printDriverLine(w io.Writer, r *workloadResult, traced bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, def := range endToEnd {
		if m, ok := findMetric(r.EndToEnd, def.Name); ok && def.PerSeed == traced {
			line.Metrics[m.Name] = value{Value: m.Median, Unit: m.Unit}
		}
	}
	if traced {
		for _, m := range r.PerLayer {
			line.Metrics[m.Name] = value{Value: m.Median, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1
	}
	// A failed operation is reported in the line, not in the exit code.
	fmt.Fprintln(w, string(data))
	return 0
}
