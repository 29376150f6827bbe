package verilog

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// FuzzReadVerilog asserts the structural-Verilog reader never panics,
// returns structured errors, and round-trips its own emission
// byte-for-byte (including assign canonicalization and escaped
// identifiers), and that the connectivity build accepts any design it
// accepts: the reader resolves every pin, so nothing is left for the build
// to reject. A design it accepts also has unique instance, net and port
// names: the reader is the one place that checks them.
func FuzzReadVerilog(f *testing.F) {
	b := designs.Generate(designs.TinySpec(7))
	var seed bytes.Buffer
	if err := Write(&seed, b.Design); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("module m (a, z);\n  input a;\n  output z;\n  wire w1;\n" +
		"  INV_X1 u1 (.A(a), .ZN(w1));\n  INV_X1 u2 (.A(w1), .ZN(z));\nendmodule\n")
	f.Add("module m (x, y);\n  input x;\n  input y;\n  assign x = y;\nendmodule\n")
	f.Add("module m (\\a/b );\n  input \\a/b ;\nendmodule\n")
	f.Add("module m (a);\n  input a;\n  BOGUS u (.A(a));\nendmodule\n")
	f.Fuzz(func(t *testing.T, in string) {
		d, _, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{File: "fuzz.v"})
		ld, _, lerr := ParseWith(strings.NewReader(in), designs.Lib(),
			Options{File: "fuzz.v", Lenient: true})
		if lerr != nil {
			requireParseError(t, lerr)
		} else if _, err := ld.CompactChecked(); err != nil {
			t.Fatalf("lenient parse accepted a design the connectivity build rejects: %v", err)
		} else if !indexNames(ld).unique(ld) {
			t.Fatal("lenient parse accepted a design with a repeated name")
		}
		if err != nil {
			requireParseError(t, err)
			return
		}
		if _, err := d.CompactChecked(); err != nil {
			t.Fatalf("parse accepted a design the connectivity build rejects: %v", err)
		}
		if !indexNames(d).unique(d) {
			t.Fatal("parse accepted a design with a repeated name")
		}
		var w1 bytes.Buffer
		if err := Write(&w1, d); err != nil {
			t.Fatalf("write after accepting parse: %v", err)
		}
		d2, _, err := ParseWith(bytes.NewReader(w1.Bytes()), designs.Lib(), Options{})
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput:\n%s", err, w1.String())
		}
		var w2 bytes.Buffer
		if err := Write(&w2, d2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write->read->write is not a fixpoint\n--- first:\n%s--- second:\n%s",
				w1.String(), w2.String())
		}
	})
}

func requireParseError(t *testing.T, err error) {
	t.Helper()
	var pe *scan.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *scan.ParseError: %T: %v", err, err)
	}
	if pe.File == "" {
		t.Fatalf("ParseError without file context: %v", pe)
	}
}

// names indexes a parsed design's instances, nets and ports by name, as the
// reader did while it parsed; the design keeps no index of its own. A
// repeated name keeps its last object.
type names struct {
	insts map[string]*netlist.Instance
	nets  map[string]*netlist.Net
	ports map[string]*netlist.Port
}

func indexNames(d *netlist.Design) names {
	ix := names{
		insts: make(map[string]*netlist.Instance, len(d.Insts)),
		nets:  make(map[string]*netlist.Net, len(d.Nets)),
		ports: make(map[string]*netlist.Port, len(d.Ports)),
	}
	for _, inst := range d.Insts {
		ix.insts[inst.Name] = inst
	}
	for _, n := range d.Nets {
		ix.nets[n.Name] = n
	}
	for _, p := range d.Ports {
		ix.ports[p.Name] = p
	}
	return ix
}

// unique reports whether no instance, net or port name of d repeats.
func (ix names) unique(d *netlist.Design) bool {
	return len(ix.insts) == len(d.Insts) && len(ix.nets) == len(d.Nets) && len(ix.ports) == len(d.Ports)
}
