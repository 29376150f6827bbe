package designs

import (
	"hash/fnv"
	"math"
	"testing"

	"ppaclust/internal/netlist"
)

// designFingerprint folds every structural and geometric fact of a design
// into one hash: ports (name, direction, position), instances (name, master,
// position, fixedness), and nets (name, clock flag, full pin list in order).
// Two designs with equal fingerprints are the same netlist bit for bit.
func designFingerprint(d *netlist.Design) uint64 {
	h := fnv.New64a()
	ws := func(s string) { _, _ = h.Write([]byte(s)); _, _ = h.Write([]byte{0}) }
	w64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	w64(uint64(len(d.Ports)))
	for _, p := range d.Ports {
		ws(p.Name)
		w64(uint64(p.Dir))
		wf(p.X)
		wf(p.Y)
	}
	w64(uint64(len(d.Insts)))
	for _, inst := range d.Insts {
		ws(inst.Name)
		ws(inst.Master.Name)
		wf(inst.X)
		wf(inst.Y)
		if inst.Fixed {
			w64(1)
		} else {
			w64(0)
		}
	}
	w64(uint64(len(d.Nets)))
	for _, n := range d.Nets {
		ws(n.Name)
		if n.Clock {
			w64(1)
		} else {
			w64(0)
		}
		w64(uint64(len(n.Pins)))
		for _, p := range n.Pins {
			w64(uint64(uint32(p.Inst)))
			ws(d.PinName(p))
		}
	}
	return h.Sum64()
}

// TestGenerateWorkersEquivalent checks the generator's bit-identity
// contract: the leaf record phase runs on private per-leaf RNG streams and
// materialization is a fixed serial order, so every worker count must
// produce the identical design — same names, same connectivity, same
// floorplan coordinates.
func TestGenerateWorkersEquivalent(t *testing.T) {
	spec := TinySpec(23)
	spec.Macros = 2
	ref := GenerateWorkers(spec, 1)
	refFP := designFingerprint(ref.Design)
	for _, w := range []int{2, 8} {
		got := GenerateWorkers(spec, w)
		if fp := designFingerprint(got.Design); fp != refFP {
			t.Fatalf("W=%d design fingerprint %x != %x", w, fp, refFP)
		}
		if got.Cons.ClockPeriod != ref.Cons.ClockPeriod || len(got.Cons.ClockPorts) != len(ref.Cons.ClockPorts) {
			t.Fatalf("W=%d constraints differ", w)
		}
	}
}
