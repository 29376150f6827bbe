package liberty

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

func TestWriteParseRoundTrip(t *testing.T) {
	lib := designs.Lib()
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatalf("%v\n--- emitted ---\n%s", err, buf.String()[:600])
	}
	if got.Name != lib.Name {
		t.Fatalf("library name %q", got.Name)
	}
	for _, name := range lib.MasterNames() {
		om := lib.Master(name)
		gm := got.Master(name)
		if gm == nil {
			t.Fatalf("cell %s lost", name)
		}
		if math.Abs(gm.Leakage-om.Leakage) > 1e-12 {
			t.Fatalf("%s leakage %v != %v", name, gm.Leakage, om.Leakage)
		}
		for pi := range om.Pins {
			op := &om.Pins[pi]
			gp := gm.Pin(op.Name)
			if gp == nil {
				t.Fatalf("%s pin %s lost", name, op.Name)
			}
			if gp.Dir != op.Dir || gp.Clock != op.Clock {
				t.Fatalf("%s pin %s flags", name, op.Name)
			}
			if math.Abs(gp.Cap-op.Cap) > 1e-20 {
				t.Fatalf("%s pin %s cap %v != %v", name, op.Name, gp.Cap, op.Cap)
			}
			if len(gp.Arcs) != len(op.Arcs) {
				t.Fatalf("%s pin %s arcs %d != %d", name, op.Name, len(gp.Arcs), len(op.Arcs))
			}
			for ai := range op.Arcs {
				oa, ga := &op.Arcs[ai], &gp.Arcs[ai]
				if ga.Kind != oa.Kind || ga.From != oa.From {
					t.Fatalf("%s/%s arc %d kind/from mismatch", name, op.Name, ai)
				}
				// Table lookups must agree at probe points.
				for _, probe := range [][2]float64{{10e-12, 5e-15}, {50e-12, 30e-15}} {
					ov := oa.Delay.Lookup(probe[0], probe[1])
					gv := ga.Delay.Lookup(probe[0], probe[1])
					if math.Abs(ov-gv) > 1e-15+1e-6*math.Abs(ov) {
						t.Fatalf("%s/%s arc delay %v != %v", name, op.Name, gv, ov)
					}
				}
				if math.Abs(ga.Energy-oa.Energy) > 1e-21 {
					t.Fatalf("%s/%s energy %v != %v", name, op.Name, ga.Energy, oa.Energy)
				}
			}
		}
	}
	// Parsed library must be functional for sequential detection.
	if !got.Master("DFF_X1").IsSequential() {
		t.Fatal("parsed DFF lost its clk->q arc")
	}
	if got.Master("RAM32X32").Class != netlist.ClassMacro {
		t.Fatal("macro flag lost")
	}
}

func TestParseMinimalCell(t *testing.T) {
	src := `library (mini) {
  cell (BUF) {
    area : 1.5;
    cell_leakage_power : 12;
    pin (A) { direction : input; capacitance : 0.002; }
    pin (Z) {
      direction : output;
      timing () {
        related_pin : "A";
        timing_type : combinational;
        cell_rise () {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.01");
          values ( "0.02, 0.03", "0.04, 0.05" );
        }
      }
    }
  }
}`
	lib, _, err := ParseWith(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := lib.Master("BUF")
	if buf == nil {
		t.Fatal("BUF missing")
	}
	if math.Abs(buf.Leakage-12e-9) > 1e-15 {
		t.Fatalf("leakage=%v", buf.Leakage)
	}
	arc := &buf.Pin("Z").Arcs[0]
	got := arc.Delay.Lookup(0.01e-9, 0.001e-12)
	if math.Abs(got-0.02e-9) > 1e-15 {
		t.Fatalf("table corner=%v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"cell (X) { }",
		"library (x) { cell (c) { pin (p) { timing () { cell_rise () { index_1 (\"1\"); index_2 (\"1\"); values (\"1\", \"2\"); } } } } }",
		"library (x) { cell (",
	}
	for _, src := range cases {
		if _, _, err := ParseWith(strings.NewReader(src), Options{}); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestDuplicateCellFails(t *testing.T) {
	src := `library (x) { cell (A) { area : 1; } cell (A) { area : 2; } }`
	if _, _, err := ParseWith(strings.NewReader(src), Options{}); err == nil {
		t.Fatal("expected duplicate cell error")
	}
}
