package main

import (
	"os"
	"strings"
	"testing"

	"ppaclust/internal/flow"
)

// TestParseFlowChoices: every documented value of -tool, -method and -shapes
// selects its constant, in any case, and an unknown one is an error naming
// the flag and its valid values instead of a silent default.
func TestParseFlowChoices(t *testing.T) {
	for _, tc := range []struct {
		tool, method, shapes string
		want                 flow.Options
		wantErr              string // substring; "" = no error
	}{
		{"openroad", "ppa", "uniform", flow.Options{Tool: flow.ToolOpenROAD, Method: flow.MethodPPAAware, Shapes: flow.ShapeUniform}, ""},
		{"innovus", "mfc", "random", flow.Options{Tool: flow.ToolInnovus, Method: flow.MethodMFC, Shapes: flow.ShapeRandom}, ""},
		{"OpenROAD", "Leiden", "VPR", flow.Options{Tool: flow.ToolOpenROAD, Method: flow.MethodLeiden, Shapes: flow.ShapeVPR}, ""},
		{"openroad", "louvain", "vpr", flow.Options{Tool: flow.ToolOpenROAD, Method: flow.MethodLouvain, Shapes: flow.ShapeVPR}, ""},
		{"openroad", "ppa", "vrp", flow.Options{}, `unknown -shapes "vrp" (valid: uniform|random|vpr)`},
		{"openraod", "ppa", "uniform", flow.Options{}, `unknown -tool "openraod" (valid: openroad|innovus)`},
		{"innovus", "fc", "uniform", flow.Options{}, `unknown -method "fc" (valid: ppa|mfc|leiden|louvain)`},
		{"", "ppa", "uniform", flow.Options{}, `unknown -tool ""`},
	} {
		var opt flow.Options
		err := parseFlowChoices(&opt, tc.tool, tc.method, tc.shapes)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("-tool %q -method %q -shapes %q: error %v, want one containing %q",
					tc.tool, tc.method, tc.shapes, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("-tool %q -method %q -shapes %q: %v", tc.tool, tc.method, tc.shapes, err)
			continue
		}
		if opt.Tool != tc.want.Tool || opt.Method != tc.want.Method || opt.Shapes != tc.want.Shapes {
			t.Errorf("-tool %q -method %q -shapes %q: got %v/%v/%v, want %v/%v/%v", tc.tool, tc.method, tc.shapes,
				opt.Tool, opt.Method, opt.Shapes, tc.want.Tool, tc.want.Method, tc.want.Shapes)
		}
	}
}

// TestUsageErrorsExit2: each command-line mistake exits 2 with a message on
// stderr, before anything is written to stdout or to the working directory.
func TestUsageErrorsExit2(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	defer func() {
		os.Stdout, os.Stderr = stdout, stderr
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"flow", "-design", "nope"},
		{"bench", "-design", "nope"},
		{"gen", "-design", "nope"},
		{"cluster", "-design", "nope"},
		{"vpr", "-design", "nope"},
		{"bench", "-table", "nope"},
		{"flow", "-tool", "nope"},
	} {
		work, logs := t.TempDir(), t.TempDir()
		outFile, err := os.Create(logs + "/stdout")
		if err != nil {
			t.Fatal(err)
		}
		errFile, err := os.Create(logs + "/stderr")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(work); err != nil {
			t.Fatal(err)
		}
		os.Stdout, os.Stderr = outFile, errFile
		code := run(args)
		os.Stdout, os.Stderr = stdout, stderr
		outFile.Close()
		errFile.Close()

		out, _ := os.ReadFile(logs + "/stdout")
		msg, _ := os.ReadFile(logs + "/stderr")
		written, _ := os.ReadDir(work)
		if code != 2 || len(out) != 0 || len(written) != 0 || len(msg) == 0 {
			t.Errorf("ppa %q: exit %d, stdout %q, %d files written, stderr %q; want exit 2, no output, a message",
				args, code, out, len(written), msg)
		}
	}
}
