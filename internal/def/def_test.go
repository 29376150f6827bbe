package def

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/place"
)

func TestWriteParseRoundTrip(t *testing.T) {
	b := designs.Generate(designs.TinySpec(111))
	place.Global(b.Design, place.Options{Seed: 1})
	place.Legalize(b.Design)
	var buf bytes.Buffer
	if err := Write(&buf, b.Design); err != nil {
		t.Fatal(err)
	}
	got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), b.Design.Lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Insts) != len(b.Design.Insts) || len(got.Nets) != len(b.Design.Nets) ||
		len(got.Ports) != len(b.Design.Ports) {
		t.Fatal("counts changed in round trip")
	}
	// Placement coordinates survive within DBU rounding.
	ix := indexNames(got)
	for _, inst := range b.Design.Insts {
		ri := ix.insts[inst.Name]
		if ri == nil {
			t.Fatalf("instance %q lost", inst.Name)
		}
		if math.Abs(ri.X-inst.X) > 1e-3 || math.Abs(ri.Y-inst.Y) > 1e-3 {
			t.Fatalf("%s moved: (%v,%v) vs (%v,%v)", inst.Name, ri.X, ri.Y, inst.X, inst.Y)
		}
		if ri.Placed != inst.Placed || ri.Fixed != inst.Fixed {
			t.Fatalf("%s placement state changed", inst.Name)
		}
	}
	// Die area survives.
	if math.Abs(got.Die.X1-b.Design.Die.X1) > 1e-3 {
		t.Fatal("die area changed")
	}
	// Net weights and clock flags survive.
	clk := ix.nets["clk"]
	if clk == nil || !clk.Clock {
		t.Fatal("clock flag lost")
	}
	// HPWL nearly identical (pins snap to DBU).
	if math.Abs(got.HPWL()-b.Design.HPWL()) > 1.0 {
		t.Fatalf("HPWL %v vs %v", got.HPWL(), b.Design.HPWL())
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	b := designs.Generate(designs.TinySpec(112))
	b.Design.Nets[3].Weight = 4
	var buf bytes.Buffer
	if err := Write(&buf, b.Design); err != nil {
		t.Fatal(err)
	}
	got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), b.Design.Lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Nets[3].Weight != 4 {
		t.Fatalf("weight=%v", got.Nets[3].Weight)
	}
}

func TestParseErrors(t *testing.T) {
	lib := designs.Lib()
	cases := []string{
		"",
		"DESIGN top ;\nCOMPONENTS 1 ;\n- u1 NOPE + PLACED ( 0 0 ) N ;\nEND COMPONENTS\nEND DESIGN",
		"DESIGN top ;\nNETS 1 ;\n- n1 ( ghost A ) ;\nEND NETS\nEND DESIGN",
		"DIEAREA ( 0 0 ) ( 1 1 ) ;",
	}
	for _, src := range cases {
		if _, _, err := ParseWith(strings.NewReader(src), lib, Options{}); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestUnitsScaling(t *testing.T) {
	lib := designs.Lib()
	src := `DESIGN t ;
UNITS DISTANCE MICRONS 2000 ;
DIEAREA ( 0 0 ) ( 20000 20000 ) ;
COMPONENTS 1 ;
- u1 INV_X1 + PLACED ( 2000 4000 ) N ;
END COMPONENTS
END DESIGN`
	d, _, err := ParseWith(strings.NewReader(src), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Die.X1 != 10 {
		t.Fatalf("die X1=%v want 10", d.Die.X1)
	}
	u1 := indexNames(d).insts["u1"]
	if u1.X != 1 || u1.Y != 2 {
		t.Fatalf("u1 at (%v,%v)", u1.X, u1.Y)
	}
}

// TestParseLongNetLine reads a net line of ~4.5 MB, one component connected
// 500k times: the written clock net of a 1M-cell design is that long, and
// a reader that cannot take it cannot read back what the writer wrote.
func TestParseLongNetLine(t *testing.T) {
	const conns = 500000
	var sb strings.Builder
	sb.WriteString("VERSION 5.8 ;\nDESIGN long ;\nCOMPONENTS 1 ;\n- u1 INV_X1 ;\nEND COMPONENTS\nNETS 1 ;\n- n1")
	for i := 0; i < conns; i++ {
		sb.WriteString(" ( u1 A )")
	}
	sb.WriteString(" ;\nEND NETS\nEND DESIGN\n")
	if sb.Len() <= 4<<20 {
		t.Fatalf("file of %d bytes holds no line past 4 MiB", sb.Len())
	}
	d, _, err := ParseWith(strings.NewReader(sb.String()), designs.Lib(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := indexNames(d).nets["n1"]; n == nil || len(n.Pins) != conns {
		t.Fatalf("net n1 = %+v, want %d pins", n, conns)
	}
}

// TestParseAllocsBounded holds the reader to at most two allocations per
// pin on a 20k-cell design: the per-line field slice is reused and each
// net's pins are sized once.
func TestParseAllocsBounded(t *testing.T) {
	d := designs.Generate(designs.ScaleSpec(20000, 1)).Design
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	pins := 0
	for _, n := range d.Nets {
		pins += len(n.Pins)
	}
	r := bytes.NewReader(buf.Bytes())
	allocs := testing.AllocsPerRun(2, func() {
		r.Reset(buf.Bytes())
		if _, _, err := ParseWith(r, d.Lib, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if perPin := allocs / float64(pins); perPin > 2 {
		t.Fatalf("%.0f allocations for %d pins: %.2f per pin, want <= 2", allocs, pins, perPin)
	} else {
		t.Logf("%.2f allocations per pin", perPin)
	}
}
