package viz

import (
	"errors"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/place"
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
// time: WritePlacement must report every one of them, not only a failed
// last call.
func TestWriteReturnsFirstError(t *testing.T) {
	b := designs.Generate(designs.TinySpec(50))
	place.Global(b.Design, place.Options{Seed: 1})
	place.Legalize(b.Design)
	opt := Options{DrawNets: 4}
	clean := &failAt{}
	if err := WritePlacement(clean, b.Design, opt); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= clean.calls; k++ {
		if err := WritePlacement(&failAt{k: k}, b.Design, opt); !errors.Is(err, errFail) {
			t.Fatalf("call %d of %d failed, WritePlacement returned %v", k, clean.calls, err)
		}
	}
}
