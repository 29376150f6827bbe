package netlist

import (
	"math"
	"math/rand"
	"testing"
)

// TestCompactHPWLMatchesPointerAPI pins the CSR view's equivalence contract:
// per-net and total HPWL from the compact kernels are bit-identical to the
// pointer API (NetHPWL, summed in net order), and stay so after positions
// move.
func TestCompactHPWLMatchesPointerAPI(t *testing.T) {
	d := wirelenTestDesign(t, 200, 300, 11)
	c := d.Compact()

	checkAll := func(stage string) {
		t.Helper()
		var want float64
		for _, n := range d.Nets {
			want += d.NetHPWL(n)
		}
		for _, got := range []float64{c.hpwl(), d.HPWL()} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: total HPWL %v != pointer-API %v", stage, got, want)
			}
		}
		c.gatherPositions()
		for ni, n := range d.Nets {
			got := c.netHPWL(ni, c.instX, c.instY, c.portX, c.portY)
			if math.Float64bits(got) != math.Float64bits(d.NetHPWL(n)) {
				t.Fatalf("%s: net %d HPWL %v != pointer-API %v", stage, ni, got, d.NetHPWL(n))
			}
		}
	}
	checkAll("initial")

	// The compact view is a topology snapshot: moving cells must not stale it.
	rng := rand.New(rand.NewSource(12))
	for step := 0; step < 50; step++ {
		inst := d.Insts[rng.Intn(len(d.Insts))]
		inst.X = rng.Float64() * 1000
		inst.Y = rng.Float64() * 1000
	}
	checkAll("after moves")
}

// naiveNetsOf scans every net for pins of instance id: the distinct incident
// net IDs in ascending order, straight off the pointer graph.
func naiveNetsOf(d *Design, id int) []int {
	var nets []int
	for _, n := range d.Nets {
		for _, p := range n.Pins {
			if !p.IsPort() && p.Inst == id {
				nets = append(nets, n.ID)
				break
			}
		}
	}
	return nets
}

// TestCompactInstNetsMatchesNaive checks the instance->net CSR against a
// naive scan of the pointer graph for every instance: same contents, same
// order.
func TestCompactInstNetsMatchesNaive(t *testing.T) {
	d := wirelenTestDesign(t, 150, 220, 21)
	c := d.Compact()
	for id := range d.Insts {
		want := naiveNetsOf(d, id)
		got := c.InstNets[c.InstStart[id]:c.InstStart[id+1]]
		if len(got) != len(want) {
			t.Fatalf("instance %d: %d nets in CSR, %d by scan", id, len(got), len(want))
		}
		for k, ni := range want {
			if int(got[k]) != ni {
				t.Fatalf("instance %d net %d: CSR %d != scan %d", id, k, got[k], ni)
			}
		}
	}
}

// TestCompactRebuildsAfterTopologyChange checks the generation-stamp
// invalidation: connecting a pin retires the cached view, and the rebuilt
// view sees the new topology.
func TestCompactRebuildsAfterTopologyChange(t *testing.T) {
	d := wirelenTestDesign(t, 40, 30, 31)
	c1 := d.Compact()
	if d.Compact() != c1 {
		t.Fatal("unchanged topology must return the cached Compact")
	}
	n, err := d.AddNet("extra")
	if err != nil {
		t.Fatal(err)
	}
	d.Connect(n, PinRef{Inst: 0, Pin: "Y"})
	d.Connect(n, PinRef{Inst: 1, Pin: "A"})
	c2 := d.Compact()
	if c2 == c1 {
		t.Fatal("topology mutation must retire the cached Compact")
	}
	if got, want := len(c2.NetStart)-1, len(d.Nets); got != want {
		t.Fatalf("rebuilt Compact has %d nets, design has %d", got, want)
	}
	if math.Float64bits(c2.hpwl()) != math.Float64bits(d.HPWL()) {
		t.Fatalf("rebuilt Compact HPWL %v != pointer-API %v", c2.hpwl(), d.HPWL())
	}
}
