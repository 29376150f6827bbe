package verilog

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"ppaclust/internal/designs"
	"ppaclust/internal/scan"
)

// TestStreamingLexerChunkInvariant checks that the streaming lexer is
// insensitive to how the reader chops the byte stream: a one-byte-at-a-time
// reader (worst case for tokens spanning read boundaries) must yield exactly
// the design a whole-buffer read does. The comparison is the written form,
// which canonicalizes ordering.
func TestStreamingLexerChunkInvariant(t *testing.T) {
	b := designs.Generate(designs.TinySpec(321))
	var src bytes.Buffer
	if err := Write(&src, b.Design); err != nil {
		t.Fatal(err)
	}
	whole, _, err := ParseWith(bytes.NewReader(src.Bytes()), b.Design.Lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunked, _, err := ParseWith(iotest.OneByteReader(bytes.NewReader(src.Bytes())), b.Design.Lib, Options{})
	if err != nil {
		t.Fatalf("one-byte reader: %v", err)
	}
	var w1, w2 bytes.Buffer
	if err := Write(&w1, whole); err != nil {
		t.Fatal(err)
	}
	if err := Write(&w2, chunked); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("parse differs between whole-buffer and one-byte readers")
	}
}

// TestStreamingReadErrorSurfaces checks that an I/O failure mid-parse comes
// back as a structured *scan.ParseError mentioning the read, not as a
// spurious syntax diagnosis.
func TestStreamingReadErrorSurfaces(t *testing.T) {
	head := "module m (a);\n  input a;\n  INV_X1 u (.A("
	boom := errors.New("disk on fire")
	r := io.MultiReader(strings.NewReader(head), iotest.ErrReader(boom))
	_, _, err := ParseWith(r, designs.Lib(), Options{})
	if err == nil {
		t.Fatal("parse accepted a failing reader")
	}
	var pe *scan.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, not *scan.ParseError: %v", err, err)
	}
	if !strings.Contains(pe.Error(), "read") || !strings.Contains(pe.Error(), "disk on fire") {
		t.Fatalf("error %q does not carry the read failure", pe.Error())
	}
}
