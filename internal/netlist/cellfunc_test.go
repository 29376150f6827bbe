package netlist_test

import (
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

// TestCellFuncTables pins the activity factor and the GNN one-hot slot of
// every master of the generated library to the values the name-prefix
// tables of the STA and the feature extractor gave them, and checks that a
// lowercase name classifies as its uppercase form.
func TestCellFuncTables(t *testing.T) {
	want := map[string]struct {
		factor float64
		slot   int
	}{
		"INV_X1": {1, 0}, "INV_X2": {1, 0}, "BUF_X1": {1, 1}, "BUF_X4": {1, 1},
		"NAND2_X1": {0.75, 2}, "NOR2_X1": {0.75, 3}, "AND2_X1": {0.75, 4},
		"OR2_X1": {0.75, 4}, "XOR2_X1": {1.5, 5}, "AOI21_X1": {0.75, 6},
		"MUX2_X1": {0.9, 6}, "DFF_X1": {1, 7}, "CLKBUF_X2": {1, 1},
		"RAM32X32": {1, 7},
	}
	lib := designs.Lib()
	lower := netlist.NewLibrary("lower")
	if len(lib.MasterNames()) != len(want) {
		t.Fatalf("library has %d masters, table %d", len(lib.MasterNames()), len(want))
	}
	for _, name := range lib.MasterNames() {
		w, ok := want[name]
		if !ok {
			t.Fatalf("master %s has no row", name)
		}
		f := lib.Master(name).Func
		if f.ActivityFactor() != w.factor || f.OneHotSlot() != w.slot {
			t.Errorf("%s: factor %v slot %d, want %v and %d", name, f.ActivityFactor(), f.OneHotSlot(), w.factor, w.slot)
		}
		m := &netlist.Master{Name: strings.ToLower(name)}
		if err := lower.AddMaster(m); err != nil {
			t.Fatal(err)
		}
		if m.Func != f {
			t.Errorf("%s classifies as %d, %s as %d", m.Name, m.Func, name, f)
		}
	}
}
