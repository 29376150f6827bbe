package verilog

import (
	"bytes"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

func TestInoutPortRoundTrip(t *testing.T) {
	lib := designs.Lib()
	d := netlist.NewDesign("io", lib)
	if _, err := d.AddPort("bidir", netlist.DirInout); err != nil {
		t.Fatal(err)
	}
	g, _ := d.AddInstance("g", lib.Master("INV_X1"))
	n, _ := d.AddNet("bidir")
	d.Connect(n, netlist.PinRef{Inst: -1, Pin: "bidir"})
	d.Connect(n, netlist.PinRef{Inst: g.ID, Pin: "A"})
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "inout bidir;") {
		t.Fatalf("missing inout declaration:\n%s", buf.String())
	}
	got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := got.Port("bidir")
	if p == nil || p.Dir != netlist.DirInout {
		t.Fatal("inout direction lost")
	}
}

func TestTokenizerComments(t *testing.T) {
	src := `module t (a); // line comment
/* block
comment */ input a;
endmodule`
	d, _, err := ParseWith(strings.NewReader(src), designs.Lib(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ports) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}
