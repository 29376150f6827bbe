package main

import (
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
