package liberty

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
// insensitive to read-boundary placement: parsing the emitted standard
// library one byte at a time must produce the same written form as a
// whole-buffer parse.
func TestStreamingLexerChunkInvariant(t *testing.T) {
	var srcBuf bytes.Buffer
	if err := Write(&srcBuf, designs.Lib()); err != nil {
		t.Fatal(err)
	}
	src := srcBuf.Bytes()
	whole, _, err := ParseWith(bytes.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunked, _, err := ParseWith(iotest.OneByteReader(bytes.NewReader(src)), Options{})
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

// TestStreamingReadErrorSurfaces checks that an I/O failure mid-parse is
// reported as a read *scan.ParseError — not swallowed as EOF, and not
// accepted as a truncated-but-valid library.
func TestStreamingReadErrorSurfaces(t *testing.T) {
	head := "library (l) {\n  cell (INV_X1) {\n    area : 1.0;\n"
	boom := errors.New("disk on fire")
	r := io.MultiReader(strings.NewReader(head), iotest.ErrReader(boom))
	_, _, err := ParseWith(r, Options{})
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

	// The statement-style truncation trap: a read failure right before the
	// library body must not parse as "library (l)" with no cells.
	r = io.MultiReader(strings.NewReader("library (l)"), iotest.ErrReader(boom))
	if _, _, err := ParseWith(r, Options{}); err == nil {
		t.Fatal("parse accepted a library truncated by a read failure")
	}
}
