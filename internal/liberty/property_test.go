package liberty

import (
	"bytes"
	"testing"

	"ppaclust/internal/designs"
)

// TestWriteParseWriteFixpoint: a parsed-then-rewritten library emits
// byte-identical text (the parse is lossless over the emitted subset).
func TestWriteParseWriteFixpoint(t *testing.T) {
	lib := designs.Lib()
	var first bytes.Buffer
	if err := Write(&first, lib); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := ParseWith(bytes.NewReader(first.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := Write(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("liberty write/parse/write is not a fixpoint")
	}
}
