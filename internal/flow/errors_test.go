package flow

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
	"ppaclust/internal/vpr"
)

// writeBenchFiles emits the five standard files for a generated benchmark.
func writeBenchFiles(t *testing.T, seed int64) Files {
	t.Helper()
	return writeFileSet(t, t.TempDir(), designs.Generate(designs.TinySpec(seed)))
}

// TestLoadBenchmarkCorruptInputs feeds a truncated DEF and a flagless SDC
// through the full benchmark loader and asserts each fails with a clean
// *scan.ParseError naming the on-disk file — no panics, no silent
// defaults. This is the flow-level regression for the former panic sites
// in the format readers.
func TestLoadBenchmarkCorruptInputs(t *testing.T) {
	t.Run("truncated def", func(t *testing.T) {
		files := writeBenchFiles(t, 211)
		data, err := os.ReadFile(files.DEF)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the file mid-COMPONENTS, mid-line.
		cut := len(data) / 2
		if err := os.WriteFile(files.DEF, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadBenchmark(files)
		if err == nil {
			// A mid-line cut can still parse if it lands between items; force
			// a malformed line instead.
			if err := os.WriteFile(files.DEF,
				append(data[:cut], []byte("\nROW r site 0 0 N DO 10 BY 2 STEP 400\n")...), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = LoadBenchmark(files)
		}
		if err == nil {
			t.Fatal("corrupt DEF accepted")
		}
		var pe *scan.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("error is not a *scan.ParseError: %T: %v", err, err)
		}
		if !strings.HasSuffix(pe.File, "t.def") {
			t.Fatalf("error does not name the DEF file: %v", pe)
		}
	})
	t.Run("flagless sdc", func(t *testing.T) {
		files := writeBenchFiles(t, 211)
		if err := os.WriteFile(files.SDC,
			[]byte("create_clock -name clk -period\nset_input_delay 0.1 -clock clk [all_inputs]\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBenchmark(files)
		if err == nil {
			t.Fatal("flagless create_clock accepted")
		}
		var pe *scan.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("error is not a *scan.ParseError: %T: %v", err, err)
		}
		if !strings.HasSuffix(pe.File, "t.sdc") || pe.Line != 1 {
			t.Fatalf("wrong provenance: %v", pe)
		}
		if !strings.Contains(pe.Msg, "last token") {
			t.Fatalf("period-at-end-of-line not diagnosed: %v", pe)
		}
	})
	t.Run("lenient load collects warnings", func(t *testing.T) {
		files := writeBenchFiles(t, 211)
		data, err := os.ReadFile(files.DEF)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files.DEF,
			append(data, []byte("ROW r site 0 0 N DO 10 BY 2 STEP 400\n")...), 0o644); err != nil {
			t.Fatal(err)
		}
		b, warns, err := LoadBenchmarkWith(files, true)
		if err != nil {
			t.Fatalf("lenient load failed: %v", err)
		}
		if b == nil || len(warns) == 0 {
			t.Fatalf("expected warnings from lenient load, got %v", warns)
		}
		if !strings.HasSuffix(warns[0].File, "t.def") {
			t.Fatalf("warning does not name its file: %v", warns[0])
		}
	})
}

// TestBuildClusteredDesignErrors checks the de-panicked clusterizer reports
// malformed assignments with design context.
func TestBuildClusteredDesignErrors(t *testing.T) {
	b := designs.Generate(designs.TinySpec(212))
	d := b.Design.Clone()
	short := make([]int, len(d.Insts)-1)
	if _, _, err := BuildClusteredDesign(d, short, 2, nil); err == nil ||
		!strings.Contains(err.Error(), d.Name) {
		t.Fatalf("short assignment not reported with design context: %v", err)
	}
	bad := make([]int, len(d.Insts))
	bad[0] = 7
	if _, _, err := BuildClusteredDesign(d, bad, 2, map[int]vpr.Shape{}); err == nil ||
		!strings.Contains(err.Error(), "cluster 7 of 2") {
		t.Fatalf("out-of-range cluster id not reported: %v", err)
	}
	neg := make([]int, len(d.Insts))
	neg[0] = -1
	if _, _, err := BuildClusteredDesign(d, neg, 2, nil); err == nil {
		t.Fatal("negative cluster id accepted")
	}
}

// TestMissingClockBufferIsAnError runs both flow entry points on a design
// whose (otherwise complete) library has no CLKBUF_X2: the clock net cannot
// be synthesized, and that must come back as an error, not as a nil master
// dereferenced inside cts.
func TestMissingClockBufferIsAnError(t *testing.T) {
	b := designs.Generate(designs.TinySpec(213))
	lib := netlist.NewLibrary(b.Design.Lib.Name)
	for _, name := range b.Design.Lib.MasterNames() {
		if name == "CLKBUF_X2" {
			continue
		}
		if err := lib.AddMaster(b.Design.Lib.Master(name)); err != nil {
			t.Fatal(err)
		}
	}
	b.Design.Lib = lib
	for name, run := range map[string]func(*designs.Benchmark, Options) (*Result, error){
		"Run": Run, "RunDefault": RunDefault,
	} {
		res, err := run(b, Options{Seed: 1, Shapes: ShapeUniform})
		if err == nil || !strings.Contains(err.Error(), "CLKBUF_X2") {
			t.Fatalf("%s: missing clock buffer not reported: res=%v err=%v", name, res != nil, err)
		}
	}
}

// validatingEntryPoints are the entry points that validate the design before
// any stage runs; Cluster is adapted to the flows' signature.
var validatingEntryPoints = map[string]func(*designs.Benchmark, Options) (*Result, error){
	"Run": Run, "RunDefault": RunDefault,
	"Cluster": func(b *designs.Benchmark, opt Options) (*Result, error) {
		_, err := Cluster(b, opt)
		return nil, err
	},
}

// TestUnplaceableCoreIsAnError runs the flow entry points on a design whose
// core has no area, on one whose cells need twice the core, and on four whose
// core has the area but not the rows — no row height or site width to snap
// to, or a core (widened 400x, so utilization stays below 1) lower than one
// row or narrower than one site: none has a legal placement, so each must
// come back as an error naming the design, not as metrics of cells piled
// outside the core or off the rows.
func TestUnplaceableCoreIsAnError(t *testing.T) {
	noCore := designs.Generate(designs.TinySpec(3))
	noCore.Design.Core = netlist.Rect{}
	overfull := designs.Generate(designs.TinySpec(3))
	c := &overfull.Design.Core
	c.Y1 = c.Y0 + c.H()*overfull.Design.Utilization()/1.98
	noRowHeight := designs.Generate(designs.TinySpec(3))
	noRowHeight.Design.RowHeight = 0
	noSiteWidth := designs.Generate(designs.TinySpec(3))
	noSiteWidth.Design.SiteWidth = 0
	halfRow := designs.Generate(designs.TinySpec(3))
	c = &halfRow.Design.Core
	c.X1, c.Y1 = c.X0+400*c.W(), c.Y0+0.5*halfRow.Design.RowHeight
	halfSite := designs.Generate(designs.TinySpec(3))
	c = &halfSite.Design.Core
	c.X1, c.Y1 = c.X0+0.5*halfSite.Design.SiteWidth, c.Y0+400*c.H()
	for _, tc := range []struct {
		name string
		b    *designs.Benchmark
		want string
	}{
		{"zero-area core", noCore, "no area"},
		{"utilization 1.98", overfull, "utilization 1.98"},
		{"zero row height", noRowHeight, "holds no row (height 0 um)"},
		{"zero site width", noSiteWidth, "sites (width 0 um)"},
		{"core half a row high", halfRow, "holds no row"},
		{"core half a site wide", halfSite, "holds no row"},
	} {
		for name, run := range validatingEntryPoints {
			res, err := run(tc.b, Options{Seed: 1, Shapes: ShapeUniform})
			if err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.Contains(err.Error(), "design "+tc.b.Design.Name) {
				t.Errorf("%s, %s: not reported: res=%v err=%v", tc.name, name, res != nil, err)
			}
		}
	}
}

// TestNonFiniteInputIsAnError runs the flow entry points on designs with a
// port at NaN, a fixed cell at +Inf, and a NaN and a negative net weight. The
// first two used to come back as NaN and infinite metrics with a nil error,
// the last two as a finite but ruined placement; each must be an error naming
// the design and the object. So must a clock period that is NaN, infinite,
// zero or negative, which used to give NaN power or a leakage-only power with
// zero WNS/TNS and a nil error.
func TestNonFiniteInputIsAnError(t *testing.T) {
	nanPort := designs.Generate(designs.TinySpec(3))
	nanPort.Design.Ports[0].X = math.NaN()
	infCell := designs.Generate(designs.TinySpec(3))
	infCell.Design.Insts[0].Fixed = true
	infCell.Design.Insts[0].X = math.Inf(1)
	nanWeight := designs.Generate(designs.TinySpec(3))
	nanWeight.Design.Nets[0].Weight = math.NaN()
	negWeight := designs.Generate(designs.TinySpec(3))
	negWeight.Design.Nets[0].Weight = -1
	clock := func(period float64) *designs.Benchmark {
		b := designs.Generate(designs.TinySpec(3))
		b.Cons.ClockPeriod = period
		return b
	}
	for _, tc := range []struct {
		name string
		b    *designs.Benchmark
		want string
	}{
		{"port at NaN", nanPort, "port " + nanPort.Design.Ports[0].Name + " is at (NaN,"},
		{"fixed cell at +Inf", infCell, "fixed instance " + infCell.Design.Insts[0].Name + " is at (+Inf,"},
		{"NaN net weight", nanWeight, "net " + nanWeight.Design.Nets[0].Name + " has weight NaN"},
		{"negative net weight", negWeight, "net " + negWeight.Design.Nets[0].Name + " has weight -1"},
		{"NaN clock period", clock(math.NaN()), "clock period NaN ns"},
		{"+Inf clock period", clock(math.Inf(1)), "clock period +Inf ns"},
		{"zero clock period", clock(0), "clock period 0 ns"},
		{"negative clock period", clock(-1e-9), "clock period -1 ns"},
	} {
		for name, run := range validatingEntryPoints {
			res, err := run(tc.b, Options{Seed: 1, Shapes: ShapeUniform})
			if err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.Contains(err.Error(), "design "+tc.b.Design.Name) {
				t.Errorf("%s, %s: not reported: res=%v err=%v", tc.name, name, res != nil, err)
			}
		}
	}
}

// TestFloorplanReadChecksNets: the loader reads the DEF's floorplan only,
// and records none of its nets, but still reads and checks every NETS
// entry. A file set whose DEF names an unknown component, an unknown master
// pin, a repeated net or a truncated connection is rejected by the strict
// load with the DEF's file and line; a net weight that is not an integer
// too. In lenient mode the load returns the errors and warnings the full
// DEF read returns, as the loader did when it kept the DEF's nets.
func TestFloorplanReadChecksNets(t *testing.T) {
	b := designs.Generate(designs.TinySpec(211))
	inst, port, net := b.Design.Insts[0].Name, b.Design.Ports[0].Name, b.Design.Nets[0].Name
	for _, tc := range []struct {
		name, entry, msg string
		tolerable        bool // a lenient load warns and goes on
	}{
		{"unknown component", "- nx ( ghost A ) ;", "unknown instance", false},
		{"unknown master pin", "- nx ( " + inst + " NOPE ) ;", `no pin "NOPE"`, false},
		{"duplicate net", "- " + net + " ( PIN " + port + " ) ;", "duplicate net", false},
		{"truncated connection", "- nx ( " + inst, "truncated net connection", false},
		{"bad weight", "- nx ( PIN " + port + " ) + WEIGHT x ;", "not an integer", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := writeFileSet(t, t.TempDir(), b)
			data, err := os.ReadFile(files.DEF)
			if err != nil {
				t.Fatal(err)
			}
			// The entry goes last in the NETS section, so it is the line
			// rejected, a repeated net included.
			lines := strings.SplitAfter(string(data), "\n")
			at := slices.Index(lines, "END NETS\n")
			if at < 0 {
				t.Fatalf("written DEF has no NETS section:\n%s", data)
			}
			lines = slices.Insert(lines, at, tc.entry+"\n")
			wantLine := at + 1
			if err := os.WriteFile(files.DEF, []byte(strings.Join(lines, "")), 0o644); err != nil {
				t.Fatal(err)
			}

			_, err = LoadBenchmark(files)
			var pe *scan.ParseError
			if !errors.As(err, &pe) || pe.File != files.DEF || pe.Line != wantLine || !strings.Contains(pe.Msg, tc.msg) {
				t.Fatalf("strict load: %v, want %q at %s:%d", err, tc.msg, files.DEF, wantLine)
			}

			// The full DEF read, which the loader used to make, in lenient mode.
			f, err := os.Open(files.DEF)
			if err != nil {
				t.Fatal(err)
			}
			_, wantWarns, wantErr := def.ParseWith(f, b.Design.Lib, def.Options{File: files.DEF, Lenient: true})
			f.Close()
			if (wantErr == nil) != tc.tolerable || (len(wantWarns) == 1) != tc.tolerable {
				t.Fatalf("full lenient read: warnings %v, error %v", wantWarns, wantErr)
			}
			loaded, warns, err := LoadBenchmarkWith(files, true)
			if fmt.Sprint(warns) != fmt.Sprint(wantWarns) {
				t.Errorf("lenient load warns %v, the full DEF read %v", warns, wantWarns)
			}
			switch {
			case wantErr != nil && (err == nil || err.Error() != "flow: def: "+wantErr.Error()):
				t.Errorf("lenient load: %v, want flow: def: %v", err, wantErr)
			case wantErr == nil && (err != nil || loaded == nil):
				t.Errorf("lenient load failed: %v", err)
			}
		})
	}
}
