package def

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
)

// TestReadFloorplanMatchesParseWith holds ReadFloorplan to ParseWith: in
// both modes it returns the same error and warnings on inputs broken in
// every section, NETS above all, and on a good file the same floorplan,
// components and pins, with no net.
func TestReadFloorplanMatchesParseWith(t *testing.T) {
	const head = "DESIGN d ;\nDIEAREA ( 0 0 ) ( 9000 9000 ) ;\nCOMPONENTS 2 ;\n- u INV_X1 + PLACED ( 10 20 ) N ;\n- v INV_X1 ;\nEND COMPONENTS\n" +
		"PINS 1 ;\n- a + NET a + DIRECTION INPUT + PLACED ( 0 5 ) N ;\nEND PINS\n"
	inputs := map[string]string{
		"good":                 head + "NETS 2 ;\n- a ( PIN a ) ( u A ) + WEIGHT 3 ;\n- n ( u ZN ) ( v A ) + USE CLOCK ;\nEND NETS\n",
		"unknown component":    head + "NETS 1 ;\n- n ( ghost A ) ;\nEND NETS\n",
		"unknown master pin":   head + "NETS 1 ;\n- n ( u Q ) ;\nEND NETS\n",
		"undeclared port":      head + "NETS 1 ;\n- n ( PIN b ) ;\nEND NETS\n",
		"duplicate net":        head + "NETS 2 ;\n- n ( u A ) ;\n- n ( v A ) ;\nEND NETS\n",
		"truncated connection": head + "NETS 1 ;\n- n ( u\nEND NETS\n",
		"bad weights":          head + "NETS 2 ;\n- n ( u A ) + WEIGHT x ;\n- m ( v A ) + WEIGHT 2.5 + WEIGHT 4 ;\nEND NETS\n",
		"huge declared counts": "DESIGN d ;\nCOMPONENTS 99999999999 ;\n- u INV_X1 ;\nEND COMPONENTS\nNETS 4000000000 ;\n- n ( u A ) ;\nEND NETS\n",
		"bad row":              head + "ROW r site 0 0 N DO 10 BY 2\n",
		"duplicate component":  head + "COMPONENTS 1 ;\n- u INV_X1 ;\nEND COMPONENTS\n",
	}
	lib := designs.Lib()
	for name, in := range inputs {
		for _, lenient := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lenient=%v", name, lenient), func(t *testing.T) {
				o := Options{File: "f.def", Lenient: lenient}
				full, wantWarns, wantErr := ParseWith(strings.NewReader(in), lib, o)
				fp, warns, err := ReadFloorplan(strings.NewReader(in), lib, o)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(warns) != fmt.Sprint(wantWarns) {
					t.Fatalf("ReadFloorplan: %v, warnings %v; ParseWith: %v, warnings %v", err, warns, wantErr, wantWarns)
				}
				if err == nil {
					sameFloorplan(t, fp, full)
				}
			})
		}
	}
	// A placed design written by Write.
	b := designs.Generate(designs.TinySpec(113))
	place.Global(b.Design, place.Options{Seed: 1})
	place.Legalize(b.Design)
	var buf bytes.Buffer
	if err := Write(&buf, b.Design); err != nil {
		t.Fatal(err)
	}
	full, _, err := ParseWith(bytes.NewReader(buf.Bytes()), b.Design.Lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := ReadFloorplan(bytes.NewReader(buf.Bytes()), b.Design.Lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameFloorplan(t, fp, full)
}

// sameFloorplan fails unless fp has no net and full's floorplan,
// instances and ports.
func sameFloorplan(t *testing.T, fp, full *netlist.Design) {
	t.Helper()
	if len(fp.Nets) != 0 {
		t.Fatalf("floorplan read recorded %d nets", len(fp.Nets))
	}
	if fp.Name != full.Name || fp.Die != full.Die || fp.Core != full.Core ||
		fp.RowHeight != full.RowHeight || fp.SiteWidth != full.SiteWidth {
		t.Fatalf("floorplan %s %v %v %v %v, full read %s %v %v %v %v", fp.Name, fp.Die, fp.Core, fp.RowHeight, fp.SiteWidth,
			full.Name, full.Die, full.Core, full.RowHeight, full.SiteWidth)
	}
	if len(fp.Insts) != len(full.Insts) || len(fp.Ports) != len(full.Ports) {
		t.Fatalf("floorplan read %d instances %d ports, full read %d %d", len(fp.Insts), len(fp.Ports), len(full.Insts), len(full.Ports))
	}
	for i, inst := range fp.Insts {
		if *inst != *full.Insts[i] {
			t.Fatalf("instance %d: floorplan read %+v, full read %+v", i, *inst, *full.Insts[i])
		}
	}
	for i, p := range fp.Ports {
		if *p != *full.Ports[i] {
			t.Fatalf("port %d: floorplan read %+v, full read %+v", i, *p, *full.Ports[i])
		}
	}
}
