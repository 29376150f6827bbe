package verilog

import (
	"bytes"
	"slices"
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
	if len(got.Insts) != len(b.Design.Insts) {
		t.Fatalf("insts %d != %d", len(got.Insts), len(b.Design.Insts))
	}
	if len(got.Ports) != len(b.Design.Ports) {
		t.Fatalf("ports %d != %d", len(got.Ports), len(b.Design.Ports))
	}
	// Hierarchy must survive (escaped identifiers).
	ix := indexNames(got)
	orig := b.Design.Insts[0]
	ri := ix.insts[orig.Name]
	if ri == nil {
		t.Fatalf("instance %q lost", orig.Name)
	}
	if ri.Master.Name != orig.Master.Name {
		t.Fatal("master changed")
	}
	// Connectivity: same pin counts per net name.
	for _, n := range b.Design.Nets {
		rn := ix.nets[n.Name]
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
	// Port "a" is on net "a" which feeds u1/A.
	na := indexNames(d).nets["a"]
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
	n1 := indexNames(d).nets["n1"]
	foundPort := false
	for _, pr := range n1.Pins {
		if pr.IsPort() && d.PinName(pr) == "y" {
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
	if indexNames(d).insts["u/1"] == nil {
		t.Fatal("escaped instance name lost")
	}
	_ = netlist.PinRef{}
}

// TestParseAllocsBounded holds the reader to 1.5 times the allocations per
// pin it measured on a 20k-cell design when it came to lex the whole file
// in place: a token is a substring of the file, so only the names the
// design keeps are copied (0.67 per pin, about one per instance and one per
// net), and the design's objects are stored in chunks.
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
	if perPin := allocs / float64(pins); perPin > 1 {
		t.Fatalf("%.0f allocations for %d pins: %.4f per pin, want <= 1", allocs, pins, perPin)
	} else {
		t.Logf("%.0f allocations for %d pins, %.4f per pin", allocs, pins, perPin)
	}
}

// TestCRLFEscapedIdentifiers parses one module rendered with LF and with
// CRLF line ends. The port a/b is declared with its escape ended by a space
// and connected with it ended by a line end: the CR ends the name as the LF
// does, so both renderings build the same design in the same storage order
// and the port's net reaches the instance pin instead of a stray "a/b\r".
func TestCRLFEscapedIdentifiers(t *testing.T) {
	src := "module top (\\a/b , y);\ninput \\a/b ;\noutput y;\nwire \\n/1\n;\n" +
		"INV_X1 \\u/1\n (.A(\\a/b\n), .ZN(\\n/1\n));\nINV_X1 u2 (.A(\\n/1\n), .ZN(y));\nendmodule\n"
	lib := designs.Lib()
	lf, _, err := ParseWith(strings.NewReader(src), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	crlf, _, err := ParseWith(strings.NewReader(strings.ReplaceAll(src, "\n", "\r\n")), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*netlist.Design{"LF": lf, "CRLF": crlf} {
		if n := indexNames(d).nets["a/b"]; n == nil || len(n.Pins) != 2 {
			t.Fatalf("%s: net a/b is %v, want the port and u/1's A", name, n)
		}
	}
	if len(lf.Insts) != len(crlf.Insts) || len(lf.Nets) != len(crlf.Nets) || len(lf.Ports) != len(crlf.Ports) {
		t.Fatalf("CRLF read %d insts %d nets %d ports, LF %d %d %d",
			len(crlf.Insts), len(crlf.Nets), len(crlf.Ports), len(lf.Insts), len(lf.Nets), len(lf.Ports))
	}
	for i, p := range lf.Ports {
		if q := crlf.Ports[i]; p.Name != q.Name || p.Dir != q.Dir {
			t.Errorf("port %d: CRLF %q %v, LF %q %v", i, q.Name, q.Dir, p.Name, p.Dir)
		}
	}
	for i, inst := range lf.Insts {
		if q := crlf.Insts[i]; inst.Name != q.Name || inst.Master != q.Master {
			t.Errorf("instance %d: CRLF %q, LF %q", i, q.Name, inst.Name)
		}
	}
	for i, n := range lf.Nets {
		if q := crlf.Nets[i]; n.Name != q.Name || !slices.Equal(n.Pins, q.Pins) {
			t.Errorf("net %d: CRLF %q %v, LF %q %v", i, q.Name, q.Pins, n.Name, n.Pins)
		}
	}
}
