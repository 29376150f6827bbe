package netlist_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/sta"
)

// placedAES is the generated aes design with every movable cell at a seeded
// random spot in the core.
func placedAES(t *testing.T) *designs.Benchmark {
	t.Helper()
	spec, ok := designs.Named("aes")
	if !ok {
		t.Fatal("no aes spec")
	}
	b := designs.Generate(spec)
	d := b.Design
	rng := rand.New(rand.NewSource(56))
	for _, inst := range d.Insts {
		if !inst.Fixed {
			inst.X = d.Core.X0 + rng.Float64()*d.Core.W()
			inst.Y = d.Core.Y0 + rng.Float64()*d.Core.H()
		}
	}
	return b
}

// TestCloneSharedTopologyDeterministic runs the stages that read a design's
// topology on two clones of one design at once: HPWL, a WirelenCache under
// seeded moves, and STA before and after an Update. The clones share their
// source's pin lists and Compact view, so under the race detector this also
// shows that nothing writes them; every result must equal the one the same
// work gives on a clone alone, bit for bit.
func TestCloneSharedTopologyDeterministic(t *testing.T) {
	b := placedAES(t)
	src := b.Design
	work := func(d *netlist.Design, seed int64) []uint64 {
		out := []uint64{math.Float64bits(d.HPWL())}
		an := sta.New(d, b.Cons)
		s := an.Timing()
		out = append(out, math.Float64bits(s.WNS), math.Float64bits(s.TNS))
		c := netlist.NewWirelenCache(d)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			id := rng.Intn(len(d.Insts))
			if !d.Insts[id].Fixed {
				c.MoveCell(id, d.Core.X0+rng.Float64()*d.Core.W(), d.Core.Y0+rng.Float64()*d.Core.H())
			}
		}
		out = append(out, math.Float64bits(c.Total()), math.Float64bits(d.HPWL()))
		an.Update()
		s = an.Timing()
		return append(out, math.Float64bits(s.WNS), math.Float64bits(s.TNS))
	}
	var want, got [2][]uint64
	for i := range want {
		want[i] = work(src.Clone(), int64(i+1))
	}
	clones := [2]*netlist.Design{src.Clone(), src.Clone()}
	if clones[0].Compact() != src.Compact() || clones[1].Compact() != src.Compact() {
		t.Fatal("a clone built its own Compact view")
	}
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = work(clones[i], int64(i+1))
		}()
	}
	wg.Wait()
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("clone %d: concurrent results %x, serial %x", i, got[i], want[i])
		}
	}
}

// TestCloneAppendLeavesSource: a clone's Net.Pins is a capped slice of the
// shared pin array, so an append to it copies, and the source's pins, its
// neighbour net's pins and the Compact view stay as they were.
func TestCloneAppendLeavesSource(t *testing.T) {
	src := placedAES(t).Design
	cm := src.Compact()
	k := slices.IndexFunc(src.Nets, func(n *netlist.Net) bool { return len(n.Pins) >= 2 })
	pins := slices.Clone(src.Nets[k].Pins)
	next := slices.Clone(src.Nets[k+1].Pins)
	pinInst := slices.Clone(cm.PinInst)
	netStart := slices.Clone(cm.NetStart)

	c := src.Clone()
	c.Nets[k].Pins = append(c.Nets[k].Pins, netlist.PinRef{Inst: 0, Pin: 0})
	if len(c.Nets[k].Pins) != len(pins)+1 {
		t.Fatal("append to a clone's pins did not take")
	}
	if !slices.Equal(src.Nets[k].Pins, pins) || !slices.Equal(src.Nets[k+1].Pins, next) {
		t.Fatal("append to a clone's pins changed the source's")
	}
	if src.Compact() != cm || !slices.Equal(cm.PinInst, pinInst) || !slices.Equal(cm.NetStart, netStart) {
		t.Fatal("append to a clone's pins changed the shared Compact view")
	}
}
