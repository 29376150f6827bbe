package cts

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/place"
)

// TestSynthesizeGolden pins the synthesized tree to the bit on a paper-sized
// and a scale design: the values were recorded at commit 20d0c9f, when
// Synthesize still gathered, bisected and annotated in parallel and
// TestSynthesizeWorkersEquivalent tied every worker count to W=1. The
// sequential rewrite has to reproduce them — in particular WirelengthUM, whose
// bits depend on annotate summing the top annotateForkDepth levels first and
// the subtree partials after, in DFS order.
func TestSynthesizeGolden(t *testing.T) {
	aes, ok := designs.Named("aes")
	if !ok {
		t.Fatal("aes spec missing")
	}
	for _, tc := range []struct {
		name                   string
		spec                   designs.Spec
		wirelength, maxI, minI uint64
		buffers, levels, sinks int
		arrivals               uint64
	}{
		{"aes", aes, 0x40a237183a62ce22, 0x3dec10b3d906c686, 0x3dea2e2058e846cf, 37, 6, 259, 0x8f6eb22bb522e2b8},
		{"scale10k", designs.ScaleSpec(10000, 1), 0x40d2baa7b98d2466, 0x3df8dd9b074c5409, 0x3df64258e9aa6577, 255, 8, 1987, 0x0c550e79695cd26c},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := designs.Generate(tc.spec).Design
			place.Global(d, place.Options{Seed: 1, Workers: 1})
			place.Legalize(d)
			res := Synthesize(d, clockNet(d), Options{BufMaster: d.Lib.Master("CLKBUF_X2")})
			h := fnv.New64a()
			var word [8]byte
			for _, a := range res.ArrivalList {
				binary.LittleEndian.PutUint64(word[:], uint64(a.Pin.Inst))
				h.Write(word[:])
				h.Write([]byte(d.PinName(a.Pin)))
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(a.T))
				h.Write(word[:])
			}
			if got := math.Float64bits(res.WirelengthUM); got != tc.wirelength {
				t.Errorf("WirelengthUM bits %#x (%v), golden %#x", got, res.WirelengthUM, tc.wirelength)
			}
			if got := math.Float64bits(res.MaxInsertion); got != tc.maxI {
				t.Errorf("MaxInsertion bits %#x (%v), golden %#x", got, res.MaxInsertion, tc.maxI)
			}
			if got := math.Float64bits(res.MinInsertion); got != tc.minI {
				t.Errorf("MinInsertion bits %#x (%v), golden %#x", got, res.MinInsertion, tc.minI)
			}
			if res.Buffers != tc.buffers || res.Levels != tc.levels || len(res.ArrivalList) != tc.sinks {
				t.Errorf("buffers %d levels %d sinks %d, golden %d %d %d",
					res.Buffers, res.Levels, len(res.ArrivalList), tc.buffers, tc.levels, tc.sinks)
			}
			if got := h.Sum64(); got != tc.arrivals {
				t.Errorf("ArrivalList hash %#x, golden %#x", got, tc.arrivals)
			}
		})
	}
}
