package route

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
)

// routeGolden holds SHA-256 digests of everything GlobalRoute reports on
// scattered and placed fixtures. Every fixture but those at capacity 10
// overflows (ariane at 10 does too), so the rip-up pass is pinned as well as
// the batched initial route.
var routeGolden = map[string]string{
	"tiny41/cap10": "eab058203942a7c940275f0c04a7feb2ff04dafcbc7b8572f435b73af2a51797",
	"tiny41/cap4":  "3a1256e84dd5bb8efc27f6902ef5f1c08e0e21a698b9c1e20ba1734e0e62c1a8",
	"tiny41/cap2":  "61bd0331fa15be41613d29c13d4a1627fce3a0a4d791d4c85d66e5fcea808cec",
	"tiny42/cap10": "e03dc78cf4861258f6360c97039b8b7a80c85e3e57006dc6514b853c44d92a60",
	"tiny42/cap4":  "6aefe052a7ff8107b09d616404e99c37273c3683ebb7f455b56cdf04385016f6",
	"tiny42/cap2":  "32bcd6af9f05e3b24895441e44f20d9eb89dd258bb1149d3aec14b7bebe8a55f",
	"tiny43/cap10": "3db3789683cce20d14ff9ddd8e908324941d7a3616587911a63d16b6f60f0d8f",
	"tiny43/cap4":  "50ace5dc48acec39b46f9a81ca730db440f16c42d66ce8ac22d50243f8479e2d",
	"tiny43/cap2":  "4d6f38cc544743d5719c22a1f3c397bd5ce519452c1c3020ebdba8690c3eb6bb",
	"aes/cap10":    "968a47a5f37e9006a9ce3adec5cd66b6c2976c34c7d7a49fab850d6ca73be355",
	"aes/cap6":     "27fd89ccb1a62c4d1569c04ba20b5b1c503af2ad705dfc01d626eccea6b749a6",
	"ariane/cap10": "f3352a091ecdb83e5e4b20bb75bd7ac766bc38e684479f4090e6f1d6d5dcbf04",
	"ariane/cap6":  "b6305c001304babda871de27d83f2cdefce1f3a2ed49a9a99633ea3b5bb1f9af",
}

// routeDigest hashes wirelength and max congestion by their bits, overflow,
// vias and every edge's usage, horizontal edges first, then vertical.
func routeDigest(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(r.WirelengthUM))
	put(uint64(r.Overflow))
	put(math.Float64bits(r.MaxCongestion))
	put(uint64(r.Vias))
	for _, u := range r.Grid.use {
		put(uint64(u))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// placedNamed places and legalizes a named benchmark, as the flow does
// before routing.
func placedNamed(t *testing.T, name string) *netlist.Design {
	t.Helper()
	spec, ok := designs.Named(name)
	if !ok {
		t.Fatalf("no design %q", name)
	}
	d := designs.Generate(spec).Design
	place.Global(d, place.Options{Seed: 1})
	place.Legalize(d)
	return d
}

// TestRouteGolden pins the router's bits on scattered and placed designs at
// one and two workers.
func TestRouteGolden(t *testing.T) {
	type fixture struct {
		name string
		d    *netlist.Design
		caps []int
	}
	var fixtures []fixture
	for seed := int64(41); seed <= 43; seed++ {
		fixtures = append(fixtures, fixture{fmt.Sprintf("tiny%d", seed), scatterTiny(t, seed), []int{10, 4, 2}})
	}
	for _, name := range []string{"aes", "ariane"} {
		fixtures = append(fixtures, fixture{name, placedNamed(t, name), []int{10, 6}})
	}
	for _, f := range fixtures {
		for _, capacity := range f.caps {
			key := fmt.Sprintf("%s/cap%d", f.name, capacity)
			for _, w := range []int{1, 2} {
				got := routeDigest(GlobalRoute(f.d, Options{Capacity: capacity, Workers: w}))
				if got != routeGolden[key] {
					t.Errorf("%s W=%d: sha256 %s, want %s", key, w, got, routeGolden[key])
				}
			}
		}
	}
}
