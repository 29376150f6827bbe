package netlist

import (
	"math"
	"math/rand"
	"testing"
)

// PinPos returns the physical position of a pin reference by the pointer
// API: a port's coordinates, or the instance origin plus the master pin
// offset when either component is nonzero, otherwise the instance center.
// It is the oracle Compact.PinXY is held bit-identical to.
func (d *Design) PinPos(p PinRef) (x, y float64) {
	if p.IsPort() {
		port := d.Ports[p.Pin]
		return port.X, port.Y
	}
	inst := d.Insts[p.Inst]
	if mp := &inst.Master.Pins[p.Pin]; mp.OffsetX != 0 || mp.OffsetY != 0 {
		return inst.X + mp.OffsetX, inst.Y + mp.OffsetY
	}
	return inst.CenterX(), inst.CenterY()
}

// netDriver returns the pin reference in slot NetDrv of net n, the driver
// the compact view resolved. ok is false for undriven nets.
func netDriver(d *Design, n *Net) (PinRef, bool) {
	c := d.Compact()
	k := c.NetDrv[n.ID]
	if k < 0 {
		return PinRef{}, false
	}
	return n.Pins[k-c.NetStart[n.ID]], true
}

// NetHPWL returns the half-perimeter wirelength of net n by walking its
// pointer pins. It is the oracle the Compact and WirelenCache kernels are
// held bit-identical to.
func (d *Design) NetHPWL(n *Net) float64 {
	if len(n.Pins) < 2 {
		return 0
	}
	minX, minY := 1e308, 1e308
	maxX, maxY := -1e308, -1e308
	for _, p := range n.Pins {
		x, y := d.PinPos(p)
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

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
		if got := d.HPWL(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: total HPWL %v != pointer-API %v", stage, got, want)
		}
		var pos Positions
		pos.Gather(d)
		for ni, n := range d.Nets {
			for k := c.NetStart[ni]; k < c.NetStart[ni+1]; k++ {
				x, y := c.PinXY(&pos, k)
				wx, wy := d.PinPos(n.Pins[k-c.NetStart[ni]])
				if math.Float64bits(x) != math.Float64bits(wx) || math.Float64bits(y) != math.Float64bits(wy) {
					t.Fatalf("%s: net %d slot %d at (%v, %v), pointer API (%v, %v)", stage, ni, k, x, y, wx, wy)
				}
			}
			got := c.NetHPWL(&pos, ni)
			if math.Float64bits(got) != math.Float64bits(d.NetHPWL(n)) {
				t.Fatalf("%s: net %d HPWL %v != pointer-API %v", stage, ni, got, d.NetHPWL(n))
			}
		}
	}
	checkAll("initial")

	// The compact view holds topology only: moving cells must not stale it.
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
