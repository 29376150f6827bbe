package sdc

import (
	"errors"
	"testing"

	"ppaclust/internal/sta"
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
// time: Write must report every one of them, not only a failed last call.
func TestWriteReturnsFirstError(t *testing.T) {
	cons := sta.DefaultConstraints(0.8e-9)
	cons.ClockPorts = []string{"clk", "clk2"}
	clean := &failAt{}
	if err := Write(clean, cons); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= clean.calls; k++ {
		if err := Write(&failAt{k: k}, cons); !errors.Is(err, errFail) {
			t.Fatalf("call %d of %d failed, Write returned %v", k, clean.calls, err)
		}
	}
}
