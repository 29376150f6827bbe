package verilog

import (
	"bytes"
	"testing"
	"testing/quick"

	"ppaclust/internal/designs"
)

// TestPropertyRoundTripManySeeds checks write->parse equivalence across many
// generated designs: instance/net/port counts, per-net pin counts, and
// hierarchy paths all survive.
func TestPropertyRoundTripManySeeds(t *testing.T) {
	f := func(seed int64) bool {
		spec := designs.TinySpec(1000 + seed%17)
		spec.TargetInsts = 150
		b := designs.Generate(spec)
		var buf bytes.Buffer
		if err := Write(&buf, b.Design); err != nil {
			return false
		}
		got, _, err := ParseWith(bytes.NewReader(buf.Bytes()), b.Design.Lib, Options{})
		if err != nil {
			return false
		}
		if len(got.Insts) != len(b.Design.Insts) ||
			len(got.Nets) != len(b.Design.Nets) ||
			len(got.Ports) != len(b.Design.Ports) {
			return false
		}
		ix := indexNames(got)
		for _, n := range b.Design.Nets {
			rn := ix.nets[n.Name]
			if rn == nil || len(rn.Pins) != len(n.Pins) {
				return false
			}
		}
		for _, inst := range b.Design.Insts {
			ri := ix.insts[inst.Name]
			if ri == nil || ri.Master.Name != inst.Master.Name {
				return false
			}
		}
		_, err = got.CompactChecked()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteIsDeterministic confirms byte-identical output for the same
// design (required for reproducible `ppa gen` artifacts).
func TestWriteIsDeterministic(t *testing.T) {
	b := designs.Generate(designs.TinySpec(77))
	var b1, b2 bytes.Buffer
	if err := Write(&b1, b.Design); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, b.Design); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("verilog writer not deterministic")
	}
}
