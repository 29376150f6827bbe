package verilog

import (
	"bytes"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

func TestWriteParseRoundTrip(t *testing.T) {
	b := designs.Generate(designs.TinySpec(101))
	var buf bytes.Buffer
	if err := Write(&buf, b.Design); err != nil {
		t.Fatal(err)
	}
	got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), b.Design.Lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Insts) != len(b.Design.Insts) {
		t.Fatalf("insts %d != %d", len(got.Insts), len(b.Design.Insts))
	}
	if len(got.Ports) != len(b.Design.Ports) {
		t.Fatalf("ports %d != %d", len(got.Ports), len(b.Design.Ports))
	}
	// Hierarchy must survive (escaped identifiers).
	orig := b.Design.Insts[0]
	ri := got.Instance(orig.Name)
	if ri == nil {
		t.Fatalf("instance %q lost", orig.Name)
	}
	if ri.Master.Name != orig.Master.Name {
		t.Fatal("master changed")
	}
	// Connectivity: same pin counts per net name.
	for _, n := range b.Design.Nets {
		rn := got.Net(n.Name)
		if rn == nil {
			t.Fatalf("net %q lost", n.Name)
		}
		if len(rn.Pins) != len(n.Pins) {
			t.Fatalf("net %q pins %d != %d", n.Name, len(rn.Pins), len(n.Pins))
		}
	}
}

func TestParseSimpleModule(t *testing.T) {
	lib := designs.Lib()
	src := `
// comment
module top (a, y, clk);
  input a;
  input clk;
  output y;
  wire n1;
  INV_X1 u1 (.A(a), .ZN(n1));
  DFF_X1 ff1 (.D(n1), .CK(clk), .Q(y));
endmodule
`
	d, _, err := ParseWith(strings.NewReader(src), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insts) != 2 || len(d.Ports) != 3 || len(d.Nets) != 4 {
		t.Fatalf("counts: %d insts %d ports %d nets", len(d.Insts), len(d.Ports), len(d.Nets))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Port "a" is on net "a" which feeds u1/A.
	na := d.Net("a")
	if len(na.Pins) != 2 {
		t.Fatalf("net a pins=%v", na.Pins)
	}
}

func TestParseAssign(t *testing.T) {
	lib := designs.Lib()
	src := `module top (a, y);
  input a;
  output y;
  wire n1;
  INV_X1 u1 (.A(a), .ZN(n1));
  assign y = n1;
endmodule`
	d, _, err := ParseWith(strings.NewReader(src), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n1 := d.Net("n1")
	foundPort := false
	for _, pr := range n1.Pins {
		if pr.IsPort() && pr.Pin == "y" {
			foundPort = true
		}
	}
	if !foundPort {
		t.Fatal("assign did not attach port y to n1")
	}
}

func TestParseErrors(t *testing.T) {
	lib := designs.Lib()
	cases := []string{
		"module top (a); input a; UNKNOWN_CELL u1 (.A(a)); endmodule",
		"module top (a); input a; INV_X1 u1 (.NOPE(a)); endmodule",
		"module top (a); input a;", // truncated
		"notamodule",
	}
	for _, src := range cases {
		if _, _, err := ParseWith(strings.NewReader(src), lib, Options{}); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestEscapedIdentifiers(t *testing.T) {
	ident := func(s string) string { return string(appendIdent(nil, s)) }
	if ident("plain_name") != "plain_name" {
		t.Fatal("plain identifier escaped")
	}
	if got := ident("a/b/c"); got != "\\a/b/c " {
		t.Fatalf("escaped=%q", got)
	}
	if got := ident("0start"); !strings.HasPrefix(got, "\\") {
		t.Fatal("leading digit must be escaped")
	}
	lib := designs.Lib()
	src := "module top (a);\n input a;\n INV_X1 \\u/1 (.A(a));\nendmodule"
	d, _, err := ParseWith(strings.NewReader(src), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Instance("u/1") == nil {
		t.Fatal("escaped instance name lost")
	}
	_ = netlist.PinRef{}
}

// TestParseAllocsBounded holds the reader to at most five allocations per
// pin on a 20k-cell design: punctuation tokens are constant strings, so a
// connection ".A(n1)," costs its two names, not seven tokens.
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
	if perPin := allocs / float64(pins); perPin > 5 {
		t.Fatalf("%.0f allocations for %d pins: %.2f per pin, want <= 5", allocs, pins, perPin)
	} else {
		t.Logf("%.2f allocations per pin", perPin)
	}
}
