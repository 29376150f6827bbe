package viz

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"ppaclust/internal/designs"
	"ppaclust/internal/netlist"
	"ppaclust/internal/place"
)

func TestWritePlacement(t *testing.T) {
	spec := designs.TinySpec(901)
	spec.Macros = 1
	b := designs.Generate(spec)
	place.Global(b.Design, place.Options{Seed: 1})
	place.Legalize(b.Design)
	var sb strings.Builder
	if err := WritePlacement(&sb, b.Design); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not a well-formed SVG document")
	}
	for _, want := range []string{"#b5651d", "#4f8fdd", "#e8c547"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing element %q", want)
		}
	}
	// Recorded on commit fde76ed with flylines off, as every product run
	// drew it.
	const want = "6ed94d1748444e8dacaeda5226fc1de709882832013766e441d29dd3792c1a72"
	if sum := sha256.Sum256([]byte(out)); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("SVG sha256 %x, want %s", sum, want)
	}
}

func TestWritePlacementNoDie(t *testing.T) {
	d := build(t, netlist.NewBuilder("empty", designs.Lib()))
	var sb strings.Builder
	if err := WritePlacement(&sb, d); err == nil {
		t.Fatal("expected error without a die")
	}
}

// build builds b's design, failing the test on an error.
func build(t testing.TB, b *netlist.Builder) *netlist.Design {
	t.Helper()
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
