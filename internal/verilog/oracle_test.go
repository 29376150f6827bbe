package verilog

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"ppaclust/internal/designs"
)

// The streaming lexer the reader used before it lexed the whole file in
// place, kept as the oracle of the in-place lexer: it reads one byte at a
// time through a bufio.Reader and allocates every token's text.

// streamToken is one lexeme of the streaming lexer; the empty text that is
// not escaped marks exhaustion.
type streamToken struct {
	text string
	line int
	esc  bool
}

type streamLexer struct {
	br   *bufio.Reader
	line int
	last int // line of the last real token; exhaustion reports here
	err  error
	buf  []byte
}

func newStreamLexer(r io.Reader) *streamLexer {
	return &streamLexer{br: bufio.NewReaderSize(r, 64<<10), line: 1}
}

func (lx *streamLexer) readByte() (byte, bool) {
	if lx.err != nil {
		return 0, false
	}
	c, err := lx.br.ReadByte()
	if err != nil {
		if err != io.EOF {
			lx.err = err
		}
		return 0, false
	}
	return c, true
}

func (lx *streamLexer) next() streamToken {
	t := lx.scanToken()
	if t.text != "" {
		lx.last = t.line
	}
	return t
}

func (lx *streamLexer) scanToken() streamToken {
	for {
		c, ok := lx.readByte()
		if !ok {
			return streamToken{text: "", line: lx.last}
		}
		switch {
		case c == '\n':
			lx.line++
		case isSpace(c):
		case c == '/':
			d, ok := lx.readByte()
			if !ok {
				return streamToken{text: "/", line: lx.line}
			}
			switch d {
			case '/':
				for {
					c, ok := lx.readByte()
					if !ok {
						return streamToken{text: "", line: lx.last}
					}
					if c == '\n' {
						lx.line++
						break
					}
				}
			case '*':
				prev := byte(0)
				for {
					c, ok := lx.readByte()
					if !ok {
						return streamToken{text: "", line: lx.last}
					}
					if c == '\n' {
						lx.line++
					}
					if prev == '*' && c == '/' {
						break
					}
					prev = c
				}
			default:
				lx.br.UnreadByte()
				return lx.word(c)
			}
		case c == '\\':
			ln := lx.line
			lx.buf = lx.buf[:0]
			for {
				c, ok := lx.readByte()
				if !ok {
					break
				}
				if isSpace(c) || c == '\n' {
					lx.br.UnreadByte()
					break
				}
				lx.buf = append(lx.buf, c)
			}
			return streamToken{text: string(lx.buf), line: ln, esc: true}
		case strings.IndexByte("(),.;=", c) >= 0:
			return streamToken{text: string(c), line: lx.line}
		default:
			return lx.word(c)
		}
	}
}

func (lx *streamLexer) word(c byte) streamToken {
	ln := lx.line
	lx.buf = append(lx.buf[:0], c)
	for {
		c, ok := lx.readByte()
		if !ok {
			break
		}
		if isSpace(c) || c == '\n' ||
			c == '(' || c == ')' || c == ',' || c == '.' || c == ';' || c == '=' || c == '\\' {
			lx.br.UnreadByte()
			break
		}
		lx.buf = append(lx.buf, c)
	}
	return streamToken{text: string(lx.buf), line: ln}
}

// compareLexers runs the in-place lexer over src and the streaming lexer
// over r (src, however chopped) token by token, through the first
// exhaustion token, and reports the first difference.
func compareLexers(t *testing.T, src string, r io.Reader) {
	t.Helper()
	lx := lexer{src: src, line: 1}
	ref := newStreamLexer(r)
	for i := 0; ; i++ {
		lx.next()
		want := ref.next()
		got := streamToken{text: src[lx.start:lx.end], line: lx.tokLine, esc: lx.esc}
		if got != want {
			t.Fatalf("token %d: in place %+v, streaming %+v", i, got, want)
		}
		if want.text == "" && !want.esc {
			break
		}
	}
	if ref.err != nil {
		t.Fatalf("streaming lexer: %v", ref.err)
	}
}

// TestLexerMatchesStreamingOracle holds the in-place lexer to the streaming
// one on the written netlists of aes, jpeg, ariane and a 10k-cell design,
// and on hand cases for every branch of the streaming lexer: CRLF line
// ends, line and block comments that span lines or reach the end of the
// file, escaped identifiers (one ending at the end of the file, one empty),
// a '/' that starts no comment, and punctuation glued to words. Each case
// is also read one byte at a time by the oracle.
func TestLexerMatchesStreamingOracle(t *testing.T) {
	cases := map[string]string{
		"crlf":                  "module m (a, y);\r\n  input a;\r\n  INV_X1 \\u/1\r\n (.A(a), .ZN(y));\r\nendmodule\r\n",
		"line comment":          "// head\nmodule m (a); // trailing\n// two\n// lines\nendmodule // last",
		"line comment at eof":   "module m (a);\n// no newline",
		"block comment":         "module /* one */ m (a);\n/* spans\n  three\n lines */ input a;\n/**/ /***/ /*/ still open */ endmodule",
		"block comment at eof":  "module m (a);\n/* never\n closed",
		"block comment stars":   "a /** b **/ c /*\n*\n*/ d",
		"escaped at eof":        "module m (a);\n  input \\a/b",
		"escaped empty":         "module \\ m (\\\t);\n\\\r\n\\",
		"escaped punctuation":   "module m (\\) , \\;;\n\\(a)=b. ;",
		"slash no comment":      "a / b /c d/e f/ /(/)/;/",
		"slash at eof":          "module m (a);\n/",
		"slash newline":         "x /\ny",
		"word punctuation":      "INV_X1 u1(.A(n1),.ZN(n2));assign y=n1;",
		"word backslash":        "ab\\cd ef\\\ngh",
		"controls and bytes":    "a\vb\fc \x00d \xffe\x80 é\x7f\x1bf",
		"empty":                 "",
		"only space":            " \t\r\n\n ",
		"comment inside word":   "a//b a/*b*/c",
		"tab separated":         "module\tm\t(\ta\t)\t;",
		"eof mid instance":      "module m (a);\n  INV_X1 u1 (.A(",
		"many newlines":         strings.Repeat("\n", 40) + "x" + strings.Repeat("\r\n", 7) + "y",
		"escaped spans newline": "\\a\nb \\c\r\nd",
	}
	for _, name := range []string{"aes", "jpeg", "ariane"} {
		spec, ok := designs.Named(name)
		if !ok {
			t.Fatalf("no design %s", name)
		}
		cases[name] = writeVerilog(t, spec)
	}
	cases["scale10k"] = writeVerilog(t, designs.ScaleSpec(10000, 4243))
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			compareLexers(t, src, strings.NewReader(src))
			if len(src) < 1<<20 {
				compareLexers(t, src, iotest.OneByteReader(strings.NewReader(src)))
			}
		})
	}
}

// writeVerilog returns the netlist Write emits for spec's design.
func writeVerilog(t testing.TB, spec designs.Spec) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, designs.Generate(spec).Design); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// FuzzLexerOracle holds the in-place lexer to the streaming oracle on any
// input. It is seeded from the reader's fuzz corpus (the written netlists
// are TestLexerMatchesStreamingOracle's); it is not a FuzzRead
// target, so the format readers' fuzz smoke (one FuzzRead target per
// package) does not pick it up, and scripts/check.sh runs it in a step of
// its own.
func FuzzLexerOracle(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadVerilog", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" and one string(...) line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		in, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(in)
	}
	f.Add("a /* b\n*/ // c\n\\d\r\ne/f")
	f.Fuzz(func(t *testing.T, in string) {
		compareLexers(t, in, strings.NewReader(in))
	})
}
