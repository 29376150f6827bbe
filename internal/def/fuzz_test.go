package def

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// FuzzReadDEF asserts the crash-proofing contract of the DEF reader: it
// never panics, every failure is a structured *scan.ParseError, any input it
// accepts re-emits as a write->read->write fixpoint, and the connectivity
// build accepts any design it accepts: the reader resolves every pin, so
// nothing is left for the build to reject. A design it accepts also has
// unique instance, net and port names: the reader is the one place that
// checks them.
func FuzzReadDEF(f *testing.F) {
	b := designs.Generate(designs.TinySpec(7))
	var seed bytes.Buffer
	if err := Write(&seed, b.Design); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("VERSION 5.8 ;\nDESIGN top ;\nUNITS DISTANCE MICRONS 1000 ;\n" +
		"DIEAREA ( 0 0 ) ( 100000 100000 ) ;\n" +
		"ROW CORE_AREA site 0 0 N DO 100 BY 50 STEP 400 1400 ;\nEND DESIGN\n")
	f.Add("DESIGN d ;\nNETS 1 ;\n- n1 ( PIN a ) + WEIGHT 3 + USE CLOCK ;\nEND NETS\n")
	f.Add("DESIGN d ;\nROW r s 0 0 N DO 1 BY 1 STEP\n")
	f.Add("DESIGN d ;\nCOMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 12000 2800 ) N ;\nEND COMPONENTS\n")
	f.Fuzz(func(t *testing.T, in string) {
		d, _, err := ParseWith(strings.NewReader(in), designs.Lib(), Options{File: "fuzz.def"})
		// Lenient mode must also never panic, whatever strict mode decided.
		ld, _, lerr := ParseWith(strings.NewReader(in), designs.Lib(),
			Options{File: "fuzz.def", Lenient: true})
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
