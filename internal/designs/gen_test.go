package designs

import (
	"math"
	"slices"
	"testing"

	"ppaclust/internal/hier"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

func TestLibMasters(t *testing.T) {
	lib := Lib()
	for _, name := range []string{"INV_X1", "NAND2_X1", "DFF_X1", "CLKBUF_X2", "RAM32X32", "XOR2_X1", "MUX2_X1"} {
		m := lib.Master(name)
		if m == nil {
			t.Fatalf("missing master %s", name)
		}
		if m.Width <= 0 || m.Height <= 0 {
			t.Fatalf("%s has degenerate size", name)
		}
	}
	if !lib.Master("DFF_X1").IsSequential() {
		t.Fatal("DFF_X1 should be sequential")
	}
	if lib.Master("INV_X1").IsSequential() {
		t.Fatal("INV_X1 should not be sequential")
	}
	if lib.Master("RAM32X32").Class != netlist.ClassMacro {
		t.Fatal("RAM should be a macro")
	}
	// Delay tables: more load -> more delay.
	arc := &lib.Master("INV_X1").Pins[1].Arcs[0] // ZN
	if arc.Delay.Lookup(10e-12, 40e-15) <= arc.Delay.Lookup(10e-12, 2e-15) {
		t.Fatal("delay should grow with load")
	}
}

func TestNamedSpecs(t *testing.T) {
	names := []string{"aes", "jpeg", "ariane", "bp", "mb", "mpg"}
	var prev int
	for _, n := range names {
		s, ok := Named(n)
		if !ok {
			t.Fatalf("missing spec %s", n)
		}
		if s.TargetInsts <= prev {
			t.Fatalf("specs should grow in size: %s", n)
		}
		prev = s.TargetInsts
		if _, ok := PaperNames[n]; !ok {
			t.Fatalf("missing paper name for %s", n)
		}
	}
	if _, ok := Named("nonexistent"); ok {
		t.Fatal("unknown spec should report !ok")
	}
}

func TestGenerateTiny(t *testing.T) {
	b := Generate(TinySpec(7))
	d := b.Design
	if _, err := d.CompactChecked(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Insts < 200 || st.Insts > 600 {
		t.Fatalf("tiny insts=%d", st.Insts)
	}
	if st.Seq == 0 {
		t.Fatal("no registers generated")
	}
	// Clock net reaches every register.
	i := slices.IndexFunc(d.Nets, func(n *netlist.Net) bool { return n.Name == "clk" })
	if i < 0 || !d.Nets[i].Clock {
		t.Fatal("clock net missing")
	}
	clkNet := d.Nets[i]
	ckPins := 0
	for _, p := range clkNet.Pins {
		if !p.IsPort() {
			ckPins++
		}
	}
	if ckPins != st.Seq {
		t.Fatalf("clock reaches %d pins, %d sequential cells", ckPins, st.Seq)
	}
	// Floorplan sanity.
	if d.Core.Area() <= 0 || d.Die.Area() <= d.Core.Area() {
		t.Fatal("bad floorplan")
	}
	util := d.Utilization()
	if util < 0.3 || util > 0.8 {
		t.Fatalf("utilization=%v", util)
	}
	// Every net has at most one driver and at least one pin.
	for _, n := range d.Nets {
		drivers := 0
		for _, p := range n.Pins {
			if p.IsPort() {
				if d.Ports[p.Pin].Dir == netlist.DirInput {
					drivers++
				}
				continue
			}
			mp := &d.Insts[p.Inst].Master.Pins[p.Pin]
			if mp.Dir == netlist.DirOutput {
				drivers++
			}
		}
		if drivers > 1 {
			t.Fatalf("net %s has %d drivers", n.Name, drivers)
		}
	}
}

// TestGenerateDeterministic: two real generations of one spec are the same
// netlist bit for bit, and another seed is a different one.
func TestGenerateDeterministic(t *testing.T) {
	a := designFingerprint(Generate(TinySpec(3)).Design)
	if b := designFingerprint(Generate(TinySpec(3)).Design); a != b {
		t.Fatalf("same spec generated twice: fingerprints %x != %x", a, b)
	}
	if c := designFingerprint(Generate(TinySpec(4)).Design); a == c {
		t.Fatalf("seeds 3 and 4 generated the same design (%x)", a)
	}
}

func TestGenerateHierarchyIsClusterable(t *testing.T) {
	b := Generate(TinySpec(11))
	res, ok := hier.Cluster(b.Design, b.Design.ToHypergraph().H)
	if !ok {
		t.Fatal("generated design should have usable hierarchy")
	}
	if res.Clusters < 2 {
		t.Fatalf("clusters=%d", res.Clusters)
	}
}

func TestGenerateTimingIsAnalyzable(t *testing.T) {
	b := Generate(TinySpec(5))
	// Spread instances over the core so wire delays are nonzero but sane.
	d := b.Design
	i := 0
	cols := int(math.Sqrt(float64(len(d.Insts)))) + 1
	for _, inst := range d.Insts {
		if inst.Fixed {
			continue
		}
		inst.X = d.Core.X0 + float64(i%cols)*2
		inst.Y = d.Core.Y0 + float64(i/cols)*1.4
		inst.Placed = true
		i++
	}
	a := sta.New(d, b.Cons)
	sum := a.Timing()
	if sum.Endpoints == 0 {
		t.Fatal("no timing endpoints")
	}
	paths := a.TopPaths(50)
	if len(paths) == 0 {
		t.Fatal("no paths extracted")
	}
	act := a.NetActivity()
	nonzero := 0
	for _, x := range act {
		if x > 0 {
			nonzero++
		}
	}
	if nonzero < len(act)/4 {
		t.Fatalf("too few active nets: %d/%d", nonzero, len(act))
	}
}

func TestGenerateWithMacros(t *testing.T) {
	spec := TinySpec(13)
	spec.Macros = 2
	b := Generate(spec)
	st := b.Design.Stats()
	if st.Macros != 2 {
		t.Fatalf("macros=%d want 2", st.Macros)
	}
	for _, inst := range b.Design.Insts {
		if inst.Master.Class == netlist.ClassMacro {
			if !inst.Fixed || !inst.Placed {
				t.Fatal("macros must be preplaced and fixed")
			}
			if c := b.Design.Core; inst.X < c.X0 || inst.X > c.X1 || inst.Y < c.Y0 || inst.Y > c.Y1 {
				t.Fatal("macro outside core")
			}
		}
	}
	if _, err := b.Design.CompactChecked(); err != nil {
		t.Fatal(err)
	}
}

func TestPortsOnBoundary(t *testing.T) {
	b := Generate(TinySpec(17))
	d := b.Design
	for _, p := range d.Ports {
		if !p.Placed {
			t.Fatalf("port %s unplaced", p.Name)
		}
		onX := math.Abs(p.X-d.Core.X0) < 1e-9 || math.Abs(p.X-d.Core.X1) < 1e-9
		onY := math.Abs(p.Y-d.Core.Y0) < 1e-9 || math.Abs(p.Y-d.Core.Y1) < 1e-9
		if !onX && !onY {
			t.Fatalf("port %s not on boundary (%v,%v)", p.Name, p.X, p.Y)
		}
	}
}

func TestPointOnPerimeter(t *testing.T) {
	r := netlist.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	cases := []struct{ t, x, y float64 }{
		{0, 0, 0}, {5, 5, 0}, {10, 10, 0}, {15, 10, 5}, {25, 5, 10}, {35, 0, 5},
	}
	for _, c := range cases {
		x, y := r.PerimeterPoint(c.t)
		if math.Abs(x-c.x) > 1e-9 || math.Abs(y-c.y) > 1e-9 {
			t.Errorf("t=%v got (%v,%v) want (%v,%v)", c.t, x, y, c.x, c.y)
		}
	}
}
