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
	d.AddPort("bidir", netlist.DirInout)
	g := d.AddInstance("g", lib.Master("INV_X1"))
	n := d.AddNet("bidir")
	d.Connect(n, pinRef(d, -1, "bidir"))
	d.Connect(n, pinRef(d, g.ID, "A"))
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
	p := indexNames(got).ports["bidir"]
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

// pinRef resolves a fixture pin by name, a port when inst < 0; fixtures
// name only declared pins.
func pinRef(d *netlist.Design, inst int, name string) netlist.PinRef {
	if inst < 0 {
		for i, p := range d.Ports {
			if p.Name == name {
				return netlist.PinRef{Inst: -1, Pin: i}
			}
		}
		panic("no port " + name)
	}
	ref, err := d.PinRefOf(inst, name)
	if err != nil {
		panic(err)
	}
	return ref
}
