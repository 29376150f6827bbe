package verilog

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
)

var errFail = errors.New("injected write failure")

// failAt is a writer whose k-th Write call fails (k = 0: none does); calls
// counts every call made.
type failAt struct{ k, calls int }

func (f *failAt) Write(p []byte) (int, error) {
	f.calls++
	if f.calls == f.k {
		return 0, errFail
	}
	return len(p), nil
}

// TestWriteReturnsFirstError fails each call a clean run makes, one at a
// time: Write must report every one of them, not only a failed last call.
func TestWriteReturnsFirstError(t *testing.T) {
	d := designs.Generate(designs.ScaleSpec(2000, 1)).Design
	clean := &failAt{}
	if err := Write(clean, d); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= clean.calls; k++ {
		if err := Write(&failAt{k: k}, d); !errors.Is(err, errFail) {
			t.Fatalf("call %d of %d failed, Write returned %v", k, clean.calls, err)
		}
	}
}

// fixture is a hand-built design holding every case the writers treat
// specially: names needing the DEF "_" and Verilog "\name " escapes, ports
// on differently named nets (Verilog assigns), a (pin, net) connection made
// twice, an instance without connections, fixed, placed and unplaced
// instances at negative and sub-dbu coordinates, a weighted net and a clock
// net.
func fixture(t testing.TB) *netlist.Design {
	lib := designs.Lib()
	nb := netlist.NewBuilder("top/blk", lib)
	d := nb.Design
	d.Die = netlist.Rect{X0: -2.5, Y0: 0, X1: 40.0005, Y1: 30}
	d.Core = netlist.Rect{X0: 0, Y0: 1.4, X1: 38, Y1: 29.4}
	d.RowHeight, d.SiteWidth = designs.RowHeight, designs.SiteWidth
	for _, p := range []struct {
		name   string
		dir    netlist.PinDir
		placed bool
		x, y   float64
	}{
		{"clk", netlist.DirInput, true, 0, 15},
		{"a b", netlist.DirInput, true, -1.2345, 3},
		{"in2", netlist.DirInput, false, 0, 0},
		{"y", netlist.DirOutput, true, 40, 7.0005},
		{"io[0]", netlist.DirInout, false, 0, 0},
	} {
		port := nb.AddPort(p.name, p.dir)
		port.Placed, port.X, port.Y = p.placed, p.x, p.y
	}
	inst := func(name, master string, x, y float64, placed, fixed bool) int {
		i := nb.AddInstance(name, lib.Master(master))
		i.X, i.Y, i.Placed, i.Fixed = x, y, placed, fixed
		return i.ID
	}
	u1 := inst("u/1", "INV_X1", 1.9, 1.4, true, false)
	ff := inst("ff 2", "DFF_X1", -0.0005, 2.8, true, true)
	g := inst("0g", "NAND2_X1", 3, 4, false, false)
	inst("lonely", "BUF_X1", 5, 5, true, false)
	net := func(name string, pins ...netlist.PinRef) *netlist.Net {
		n := nb.AddNet(name)
		for _, pr := range pins {
			nb.Connect(n, pr)
		}
		return n
	}
	pin := func(inst int, name string) netlist.PinRef {
		ref, err := d.PinRefOf(inst, name)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	port := func(name string) netlist.PinRef {
		return netlist.PinRef{Inst: -1, Pin: slices.IndexFunc(d.Ports, func(p *netlist.Port) bool { return p.Name == name })}
	}
	net("clk", port("clk"), pin(ff, "CK")).Clock = true
	net("a b", port("a b"), pin(u1, "A"), pin(g, "A1"))
	net("n1", pin(u1, "ZN"), pin(ff, "D"),
		pin(ff, "D"), port("y"))
	net("n_in", port("in2"), pin(g, "A2"))
	net("w/q", pin(ff, "Q"), port("io[0]")).Weight = 3
	net("g out", pin(g, "ZN"))
	return build(t, nb)
}

// TestWriteGolden pins Write's output byte for byte: any change to the
// emitted text, the fixpoint's and every downstream number's input, shows
// up here as a changed hash.
func TestWriteGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *netlist.Design
		want string
	}{
		{"fixture", fixture(t), "2559ba46342d66f53745e17d15e50704185b25d2c03f39c91ce20b4e35fee1b3"},
		{"scale20000", designs.Generate(designs.ScaleSpec(20000, 1)).Design, "e8709c19e138a30ff273ed69ae29c51018233f2a91ce8e404777dba8400764e3"},
	} {
		h := sha256.New()
		if err := Write(h, tc.d); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestWriteAllocsBounded requires Write's allocation count not to grow with
// the design: ten times the cells must cost the same number of allocations.
func TestWriteAllocsBounded(t *testing.T) {
	var allocs []float64
	for _, cells := range []int{2000, 20000} {
		d := designs.Generate(designs.ScaleSpec(cells, 1)).Design
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			if err := Write(io.Discard, d); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocations grow with the design: %v at 2000 cells, %v at 20000", allocs[0], allocs[1])
	}
}

// BenchmarkWrite writes a 100k-cell design to a file, as the benchmark's
// set-up does: the file, not io.Discard, so system calls are counted.
func BenchmarkWrite(b *testing.B) {
	d := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	path := filepath.Join(b.TempDir(), "scale100000.v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := Write(f, d); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// build builds b's design, failing the test on an error.
func build(t testing.TB, b *netlist.Builder) *netlist.Design {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
