package sta_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/sta"
)

// engineGolden holds SHA-256 digests of everything the analyzer reports,
// recorded at the last commit that still had the sequential push-relaxation
// passes (so by that engine). Every engine since, the push along the one
// topological order included, must land on the same bits: arrival, required
// time, slew, activity, hold and DRV.
var engineGolden = map[string]string{
	"aes/zero-wire":      "865a50b51cf87bdc97d1a10f4342b2092b598e45e601f4ff758dbe87f26894bd",
	"aes/placed":         "ae0111b35875f1802c9d505f411102aa7c621c0d2c5d39fae338c28abd6a7ef1",
	"jpeg/zero-wire":     "2df59433d61406dd054db0e40d92f4f5ec19598a4679fa7abf5d20a0fd85874c",
	"jpeg/placed":        "999ddf95f218cf6146ce424f5fe4f89ffbb94b1ae5c718fa8d796ac9a990de41",
	"scale10k/zero-wire": "8acc328ad85edbef20b16bec4d757589da574b204467417ad1f2ba55f3d1a347",
	"scale10k/placed":    "6d00e7baf74c82c20f1b2e9f233cdaf3b9bebfc90ea8750547391540bb844087",
}

// pathGolden holds SHA-256 digests of every TopPaths path on the same
// fixtures: slack, pins and nets. It pins which of several equally worst
// predecessors a path backtracks through, which engineGolden cannot see.
var pathGolden = map[string]string{
	"aes/zero-wire":      "cc64560ad1be74b76063a3ab8f781ab079b109594cfbc83a061abe66c77a1eb2",
	"aes/placed":         "72bd7d9145016e1b7d3a487302e315dc321d83b0fe64effe5b412bee687abf75",
	"jpeg/zero-wire":     "7c48d71b851377a62e0bac104cc478f6ca4078104bb011fb870e5b5796e6f43e",
	"jpeg/placed":        "7bc14f3358e722e9396d5c3664d217390d7f9eb8ce00f664909563af615fcd47",
	"scale10k/zero-wire": "af75897a72f155737ab95dee3aca7c97581a07941e7c64e696ea425f0d38c512",
	"scale10k/placed":    "e2b73758cadd29b822aa095daa55a209410db3ecaab264a42fa5a09097028562",
}

// engineDigest hashes per-net slacks, the setup summary, net activities, the
// hold summary and the DRV report of one analyzer, floats by their bits.
func engineDigest(a *sta.Analyzer) string {
	h := sha256.New()
	var buf [8]byte
	f := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	n := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	f(a.NetSlackInto(nil)...)
	s := a.Timing()
	f(s.WNS, s.TNS)
	n(s.Endpoints, s.Failing)
	f(a.NetActivity()...)
	hs := a.HoldTiming()
	f(hs.WHS, hs.THS)
	n(hs.Endpoints, hs.Failing)
	drv := a.DRV()
	f(drv.WorstCapRatio, drv.WorstSlew)
	n(drv.MaxCapViolations, drv.MaxSlewViolations, drv.CheckedDrivers)
	return hex.EncodeToString(h.Sum(nil))
}

// pathDigest hashes every path TopPaths reports: its slack by its bits, then
// its pins, its nets and its endpoint, each list prefixed by its length.
func pathDigest(a *sta.Analyzer) string {
	h := sha256.New()
	var buf [8]byte
	n := func(vs ...int) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	for _, p := range a.TopPaths(0) {
		n(int(math.Float64bits(p.Slack)), len(p.Pins))
		for _, pin := range p.Pins {
			n(pin.Inst, pin.Pin)
		}
		n(len(p.Nets))
		n(p.Nets...)
		n(p.Endpoint.Inst, p.Endpoint.Pin)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFixtures calls check with the analyzer of each recorded fixture:
// aes and jpeg at 800 instances and ScaleSpec(10000, 1), scattered with seed
// 42, each zero-wire and placed.
func goldenFixtures(check func(key string, a *sta.Analyzer)) {
	aes, _ := designs.Named("aes")
	aes.TargetInsts = 800
	jpeg, _ := designs.Named("jpeg")
	jpeg.TargetInsts = 800
	specs := []struct {
		name string
		spec designs.Spec
	}{
		{"aes", aes},
		{"jpeg", jpeg},
		{"scale10k", designs.ScaleSpec(10000, 1)},
	}
	for _, sp := range specs {
		b := designs.Generate(sp.spec)
		scatter(b.Design, 42)
		for _, zeroWire := range []bool{true, false} {
			key := sp.name + "/placed"
			if zeroWire {
				key = sp.name + "/zero-wire"
			}
			cons := b.Cons
			cons.ZeroWire = zeroWire
			check(key, sta.New(b.Design, cons))
		}
	}
}

func TestEngineGolden(t *testing.T) {
	goldenFixtures(func(key string, a *sta.Analyzer) {
		if got := engineDigest(a); got != engineGolden[key] {
			t.Errorf("%s: digest %s, recorded %s", key, got, engineGolden[key])
		}
	})
}

func TestTopPathsGolden(t *testing.T) {
	goldenFixtures(func(key string, a *sta.Analyzer) {
		if got := pathDigest(a); got != pathGolden[key] {
			t.Errorf("%s: digest %s, recorded %s", key, got, pathGolden[key])
		}
	})
}
