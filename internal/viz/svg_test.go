package viz

import (
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
	if err := WritePlacement(&sb, b.Design, Options{DrawNets: 4}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not a well-formed SVG document")
	}
	for _, want := range []string{"#b5651d", "#4f8fdd", "#e8c547", "<line"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing element %q", want)
		}
	}
}

func TestWritePlacementNoDie(t *testing.T) {
	d := netlist.NewDesign("empty", designs.Lib())
	var sb strings.Builder
	if err := WritePlacement(&sb, d, Options{}); err == nil {
		t.Fatal("expected error without a die")
	}
}
