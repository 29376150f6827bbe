package scan_test

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"ppaclust/internal/def"
	"ppaclust/internal/designs"
	"ppaclust/internal/lef"
	"ppaclust/internal/liberty"
	"ppaclust/internal/scan"
	"ppaclust/internal/sdc"
	"ppaclust/internal/verilog"
)

// streamScanner is the line scanner the readers used before Scanner read
// its input whole, kept as Scanner's oracle: a bufio.Scanner that copies
// every line into a string and splits it as strings.Fields does.
type streamScanner struct {
	sc  *bufio.Scanner
	num int
}

func newStreamScanner(r io.Reader) *streamScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1024*1024)
	return &streamScanner{sc: sc}
}

// scan returns the next non-empty line's number and fields, or ok false.
func (s *streamScanner) scan() (num int, fields []string, ok bool) {
	for s.sc.Scan() {
		s.num++
		if f := strings.Fields(s.sc.Text()); len(f) > 0 {
			return s.num, f, true
		}
	}
	return 0, nil, false
}

// compareScanners reads src with Scanner and r (src, however chopped) with
// the oracle, and reports the first line whose number or fields differ.
func compareScanners(t *testing.T, src string, r io.Reader) {
	t.Helper()
	sc := scan.NewScanner(strings.NewReader(src), "f", 0)
	ref := newStreamScanner(r)
	for i := 0; ; i++ {
		num, fields, ok := ref.scan()
		if got := sc.Scan(); got != ok {
			t.Fatalf("line %d: Scan %v, oracle %v", i, got, ok)
		}
		if !ok {
			break
		}
		if ln := sc.Line(); ln.Num != num || !slices.Equal(ln.Fields, fields) {
			t.Fatalf("line %d: Scanner %d %q, oracle %d %q", i, ln.Num, ln.Fields, num, fields)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := ref.sc.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestScannerMatchesStreamingOracle holds Scanner to the bufio line scanner
// on the five written files of aes, jpeg, ariane and a 10k-cell design, and
// on hand cases: CRLF and bare-CR line ends, blank and white-space-only
// lines, a last line without a line end, Unicode spaces and invalid UTF-8.
// Each is also read one byte at a time by the oracle.
func TestScannerMatchesStreamingOracle(t *testing.T) {
	cases := map[string]string{
		"crlf":            "DESIGN d ;\r\nCOMPONENTS 1 ;\r\n- u INV_X1 ;\r\n\r\nEND COMPONENTS\r\n",
		"bare cr":         "a\rb\nc \r d\r",
		"blank lines":     "\n\n  \t\n a \n\n\nb\n \n",
		"no final end":    "a b\nc d",
		"only a line end": "\n",
		"empty":           "",
		"unicode spaces":  "a b c\nd\u0085e \xff f\n\xc2",
		"controls":        "a\vb\fc\x00d\n\x01 \x7f",
	}
	for _, name := range []string{"aes", "jpeg", "ariane"} {
		spec, ok := designs.Named(name)
		if !ok {
			t.Fatalf("no design %s", name)
		}
		for ext, text := range writeFileSet(t, spec) {
			cases[name+ext] = text
		}
	}
	for ext, text := range writeFileSet(t, designs.ScaleSpec(10000, 4243)) {
		cases["scale10k"+ext] = text
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			compareScanners(t, src, strings.NewReader(src))
			if len(src) < 1<<20 {
				compareScanners(t, src, iotest.OneByteReader(strings.NewReader(src)))
			}
		})
	}
}

// writeFileSet returns the five standard files written for spec's design,
// by extension.
func writeFileSet(t *testing.T, spec designs.Spec) map[string]string {
	t.Helper()
	b := designs.Generate(spec)
	out := map[string]string{}
	for ext, write := range map[string]func(io.Writer) error{
		".v":   func(w io.Writer) error { return verilog.Write(w, b.Design) },
		".def": func(w io.Writer) error { return def.Write(w, b.Design) },
		".sdc": func(w io.Writer) error { return sdc.Write(w, b.Cons) },
		".lib": func(w io.Writer) error { return liberty.Write(w, b.Design.Lib) },
		".lef": func(w io.Writer) error { return lef.Write(w, b.Design.Lib) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		out[ext] = buf.String()
	}
	return out
}
