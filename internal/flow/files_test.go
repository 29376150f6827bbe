package flow

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/lef"
	"ppaclust/internal/liberty"
	"ppaclust/internal/netlist"
	"ppaclust/internal/par"
	"ppaclust/internal/scan"
	"ppaclust/internal/sdc"
	"ppaclust/internal/verilog"
)

// writeFileSet writes b as the five standard files t.v, t.def, t.sdc, t.lib
// and t.lef under dir.
func writeFileSet(tb testing.TB, dir string, b *designs.Benchmark) Files {
	tb.Helper()
	write := func(name string, fn func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			tb.Fatal(err)
		}
		if err := fn(f); err != nil {
			tb.Fatal(err)
		}
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
		return path
	}
	return Files{
		Verilog: write("t.v", func(f *os.File) error { return verilog.Write(f, b.Design) }),
		DEF:     write("t.def", func(f *os.File) error { return def.Write(f, b.Design) }),
		SDC:     write("t.sdc", func(f *os.File) error { return sdc.Write(f, b.Cons) }),
		Liberty: write("t.lib", func(f *os.File) error { return liberty.Write(f, b.Design.Lib) }),
		LEF:     write("t.lef", func(f *os.File) error { return lef.Write(f, b.Design.Lib) }),
	}
}

// TestLoadBenchmarkRoundTrip writes a benchmark out as the five standard
// files, loads it back, and runs the full flow on the file-loaded design —
// the complete Algorithm 1 input path.
func TestLoadBenchmarkRoundTrip(t *testing.T) {
	b := designs.Generate(designs.TinySpec(201))
	files := writeFileSet(t, t.TempDir(), b)
	loaded, err := LoadBenchmark(files)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Design.Insts) != len(b.Design.Insts) {
		t.Fatalf("insts %d != %d", len(loaded.Design.Insts), len(b.Design.Insts))
	}
	if math.Abs(loaded.Cons.ClockPeriod-b.Cons.ClockPeriod) > 1e-15 {
		t.Fatalf("clock period %v != %v", loaded.Cons.ClockPeriod, b.Cons.ClockPeriod)
	}
	if len(loaded.Cons.ClockPorts) != 1 || loaded.Cons.ClockPorts[0] != "clk" {
		t.Fatalf("clock ports %v", loaded.Cons.ClockPorts)
	}
	// Floorplan must have merged.
	if math.Abs(loaded.Design.Core.W()-b.Design.Core.W()) > 1.5 {
		t.Fatalf("core %v != %v", loaded.Design.Core, b.Design.Core)
	}
	if loaded.Design.RowHeight == 0 || loaded.Design.SiteWidth == 0 {
		t.Fatal("row/site geometry lost")
	}
	// Clock net flagged from SDC.
	i := slices.IndexFunc(loaded.Design.Nets, func(n *netlist.Net) bool { return n.Name == "clk" })
	if i < 0 || !loaded.Design.Nets[i].Clock {
		t.Fatal("clock net not marked")
	}
	// The full flow must run on the loaded benchmark.
	res, err := Run(loaded, Options{Seed: 1, Shapes: ShapeUniform})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutedWL <= 0 || res.TNS > 0 {
		t.Fatalf("bad metrics from file-loaded flow: %+v", res)
	}
	// And should be in the same ballpark as the in-memory flow.
	ref, err := Run(b, Options{Seed: 1, Shapes: ShapeUniform})
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL < 0.5*ref.HPWL || res.HPWL > 2.0*ref.HPWL {
		t.Fatalf("file-loaded HPWL %v vs in-memory %v", res.HPWL, ref.HPWL)
	}
}

func TestLoadBenchmarkMissingFiles(t *testing.T) {
	if _, err := LoadBenchmark(Files{Verilog: "/nonexistent.v", Liberty: "/nonexistent.lib", SDC: "/nonexistent.sdc"}); err == nil {
		t.Fatal("expected error")
	}
}

// TestClockRootMustNameAPort: an SDC clock root that names no port of the
// design is a load error naming the root, in strict and lenient mode alike;
// it used to leave every net unmarked and the flow timed without CTS.
func TestClockRootMustNameAPort(t *testing.T) {
	files := writeFileSet(t, t.TempDir(), designs.Generate(designs.TinySpec(5)))
	text, err := os.ReadFile(files.SDC)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(text), "get_ports clk", "get_ports nosuch", 1)
	if bad == string(text) {
		t.Fatalf("written SDC has no clock root on port clk:\n%s", text)
	}
	if err := os.WriteFile(files.SDC, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, lenient := range []bool{false, true} {
		b, _, err := LoadBenchmarkWith(files, lenient)
		if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
			t.Errorf("lenient %v: clock root naming no port loaded: b=%v err=%v", lenient, b != nil, err)
		}
	}
}

// TestVirtualClockLoads: a virtual clock (create_clock -name with no
// [get_ports ...]) names no clock root, so a file set whose SDC adds one
// still loads, with only the real root's net marked as a clock net.
func TestVirtualClockLoads(t *testing.T) {
	files := writeFileSet(t, t.TempDir(), designs.Generate(designs.TinySpec(5)))
	f, err := os.OpenFile(files.SDC, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString("create_clock -name vclk -period 1.0\n")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBenchmark(files)
	if err != nil {
		t.Fatalf("virtual clock: %v", err)
	}
	var clockNets []string
	for _, n := range b.Design.Nets {
		if n.Clock {
			clockNets = append(clockNets, n.Name)
		}
	}
	if !slices.Equal(b.Cons.ClockPorts, []string{"clk"}) || !slices.Equal(clockNets, []string{"clk"}) {
		t.Fatalf("clock ports %v, clock nets %v; want the port clk and its net", b.Cons.ClockPorts, clockNets)
	}
}

// loadDigest is the SHA-256 of what a load produces: every instance, net and
// port, the floorplan and the constraints, floats by their bits.
func loadDigest(b *designs.Benchmark) string {
	h := sha256.New()
	bits := math.Float64bits
	d := b.Design
	for _, inst := range d.Insts {
		fmt.Fprintf(h, "I %s %s %x %x %t %t\n", inst.Name, inst.Master.Name, bits(inst.X), bits(inst.Y), inst.Placed, inst.Fixed)
	}
	for _, n := range d.Nets {
		fmt.Fprintf(h, "N %s %x %t", n.Name, bits(n.Weight), n.Clock)
		for _, pr := range n.Pins {
			fmt.Fprintf(h, " %d:%s", pr.Inst, d.PinName(pr))
		}
		fmt.Fprintln(h)
	}
	for _, p := range d.Ports {
		fmt.Fprintf(h, "P %s %d %x %x %t\n", p.Name, p.Dir, bits(p.X), bits(p.Y), p.Placed)
	}
	for _, r := range []struct{ X0, Y0, X1, Y1 float64 }{d.Die, d.Core} {
		fmt.Fprintf(h, "R %x %x %x %x\n", bits(r.X0), bits(r.Y0), bits(r.X1), bits(r.Y1))
	}
	fmt.Fprintf(h, "G %x %x\n", bits(d.RowHeight), bits(d.SiteWidth))
	c := b.Cons
	fmt.Fprintf(h, "C %x %q %x %x %x %x %x %t\n", bits(c.ClockPeriod), c.ClockPorts, bits(c.InputDelay),
		bits(c.OutputDelay), bits(c.InputSlew), bits(c.PortCap), bits(c.InputActivity), c.ZeroWire)
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadBenchmarkWorkersEquivalent loads two file sets, and four corrupt
// ones, at 1, 2 and 8 workers: the Verilog and DEF reads run side by side
// from two, and neither the loaded design nor the errors and warnings may
// depend on it. The digests were recorded when the two reads still ran one
// after the other.
func TestLoadBenchmarkWorkersEquivalent(t *testing.T) {
	aes, _ := designs.Named("aes")
	for _, tc := range []struct {
		name string
		spec designs.Spec
		want string
	}{
		{"scale20000", designs.ScaleSpec(20000, 4243), "ffe035f1fe58a76edcdc07db2cc0c076bc983ab7aac46e0057a66d0086f4efda"},
		{"aes", aes, "d93f8020bb2e902de5178321d3452e6789f30c0e06453742ea477367f3496434"},
	} {
		files := writeFileSet(t, t.TempDir(), designs.Generate(tc.spec))
		for _, w := range []string{"1", "2", "8"} {
			t.Run(tc.name+"/W"+w, func(t *testing.T) {
				t.Setenv(par.EnvWorkers, w)
				b, err := LoadBenchmark(files)
				if err != nil {
					t.Fatal(err)
				}
				if got := loadDigest(b); got != tc.want {
					t.Errorf("sha256 %s, want %s", got, tc.want)
				}
			})
		}
	}
	// The corrupt rows break the Verilog and the DEF of one file set at once:
	// whichever read finishes first, a Verilog error wins and carries no DEF
	// warnings, and lenient warnings list the Verilog ones before the DEF
	// ones, as when the reads ran one after the other.
	const (
		assignNonPorts = "  assign nx_a = nx_b;\n"       // strict: error; lenient: warning
		unknownCell    = "  NO_SUCH_CELL u_x ( );\n"     // fatal in both modes
		badRow         = "ROW r site 0 0 N DO 10 BY 2\n" // strict: error; lenient: warning
		earlyDieArea   = "DIEAREA ( 0 0 ) ( 1 1 ) ;\n"   // fatal in both modes
	)
	for _, tc := range []struct {
		name        string
		vBody, dTop string // inserted before endmodule / before the first DEF line
		dTail       string // appended to the DEF
		lenient     bool
		errIn       string   // file the error names; "" for none
		warnIn      []string // files the warnings name, in order
	}{
		{"strict: verilog error wins", assignNonPorts, "", badRow, false, "t.v", nil},
		{"lenient: verilog warnings first", assignNonPorts, "", badRow, true, "", []string{"t.v", "t.def"}},
		{"lenient: verilog error drops def warnings", unknownCell, "", badRow, true, "t.v", nil},
		{"lenient: def error keeps verilog warnings", assignNonPorts, earlyDieArea, "", true, "t.def", []string{"t.v"}},
	} {
		files := writeFileSet(t, t.TempDir(), designs.Generate(designs.TinySpec(211)))
		edit := func(path string, fn func(s string) string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(fn(string(data))), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		edit(files.Verilog, func(s string) string { return strings.Replace(s, "endmodule", tc.vBody+"endmodule", 1) })
		edit(files.DEF, func(s string) string { return tc.dTop + s + tc.dTail })
		for _, w := range []string{"1", "2", "8"} {
			t.Run("corrupt/"+tc.name+"/W"+w, func(t *testing.T) {
				t.Setenv(par.EnvWorkers, w)
				_, warns, err := LoadBenchmarkWith(files, tc.lenient)
				var pe *scan.ParseError
				switch {
				case tc.errIn == "" && err != nil:
					t.Fatalf("load failed: %v", err)
				case tc.errIn != "" && (!errors.As(err, &pe) || filepath.Base(pe.File) != tc.errIn):
					t.Fatalf("error %v, want a *scan.ParseError naming %s", err, tc.errIn)
				}
				var got []string
				for _, w := range warns {
					got = append(got, filepath.Base(w.File))
				}
				if strings.Join(got, " ") != strings.Join(tc.warnIn, " ") {
					t.Fatalf("warnings name %v, want %v: %v", got, tc.warnIn, warns)
				}
			})
		}
	}
}

// BenchmarkLoadBenchmark loads a 100k-cell file set from disk with the
// Verilog and DEF reads one after the other (W1) and side by side (W2).
func BenchmarkLoadBenchmark(b *testing.B) {
	files := writeFileSet(b, b.TempDir(), designs.Generate(designs.ScaleSpec(100000, 1)))
	for _, w := range []string{"1", "2"} {
		b.Run("W"+w, func(b *testing.B) {
			b.Setenv(par.EnvWorkers, w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadBenchmark(files); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
