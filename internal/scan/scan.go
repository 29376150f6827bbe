// Package scan is the shared bounds-checked token-reader layer under the
// format front-end (def, lef, liberty, sdc, verilog). Every reader builds on
// it so that a malformed input line yields a structured *ParseError carrying
// file name, line number and the offending token — never a panic, and never
// a silently defaulted value. It also carries the strict/lenient mode
// policy, Warnings.Tolerate: strict parsing turns every recoverable field
// error into a *ParseError, lenient parsing skips the field and records the
// same error as a warning. The def, lef, sdc and verilog readers take their
// input whole (ReadAll, Scanner) and lex it in place, so a token is a
// substring of the input, not a copy.
package scan

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxAbs is the universal magnitude cap on parsed floats. Values beyond it
// (and NaN/Inf) are rejected: no physical quantity the flow consumes —
// nanoseconds, picofarads, microns, database units — comes anywhere near it,
// and the cap keeps downstream float->int conversions and unit rescaling
// away from overflow and implementation-defined behavior.
const maxAbs = 1e30

// ParseError is the structured error every format reader returns. File is
// the file name (or the format tag, e.g. "def", when no name was given),
// Line is 1-based (0 when the error is not tied to a line), Token is the
// offending token when one exists.
type ParseError struct {
	File  string
	Line  int
	Token string
	Msg   string
}

func (e *ParseError) Error() string {
	var b strings.Builder
	b.WriteString(e.File)
	if e.Line > 0 {
		fmt.Fprintf(&b, ":%d", e.Line)
	}
	b.WriteString(": ")
	if e.Token != "" {
		fmt.Fprintf(&b, "%q: ", e.Token)
	}
	b.WriteString(e.Msg)
	return b.String()
}

// Errorf builds a *ParseError with a formatted message.
func Errorf(file string, line int, token, format string, args ...any) *ParseError {
	return &ParseError{File: file, Line: line, Token: token, Msg: fmt.Sprintf(format, args...)}
}

// Warnings collects the lenient-mode ParseErrors a reader tolerated, and is
// the one strict/lenient policy every reader applies through Tolerate. A
// reader in lenient mode holds a non-nil *Warnings (the zero value is ready
// to use); a nil *Warnings is strict mode.
type Warnings struct {
	list []*ParseError
}

// Tolerate routes one recoverable field error. In strict mode (nil w) it
// returns err. In lenient mode it records err as a warning — a plain error
// becomes a *ParseError carrying its message — and returns nil. A nil err is
// nil in both modes and records nothing.
func (w *Warnings) Tolerate(err error) error {
	if w == nil || err == nil {
		return err
	}
	pe, ok := err.(*ParseError)
	if !ok {
		pe = &ParseError{Msg: err.Error()}
	}
	w.list = append(w.list, pe)
	return nil
}

// List returns the recorded warnings in input order.
func (w *Warnings) List() []*ParseError {
	if w == nil {
		return nil
	}
	return w.list
}

// Line is one line of whitespace-separated fields with provenance. All
// accessors are bounds-checked and return *ParseError on violation.
type Line struct {
	File   string
	Num    int
	Fields []string
}

// Len returns the field count.
func (l *Line) Len() int { return len(l.Fields) }

// Tok returns field i, or "" when i is out of range. It is the total
// counterpart of Str for positional reads whose bounds were already
// established (via Require or a Len-bounded loop): no impossible-error
// plumbing, and no way to panic on a short line.
func (l *Line) Tok(i int) string {
	if i < 0 || i >= len(l.Fields) {
		return ""
	}
	return l.Fields[i]
}

// Errf builds a *ParseError anchored at this line. The error keeps a copy
// of token, not the input it is a substring of.
func (l *Line) Errf(token, format string, args ...any) *ParseError {
	return Errorf(l.File, l.Num, strings.Clone(token), format, args...)
}

// Require errors unless the line has at least n fields.
func (l *Line) Require(n int) error {
	if len(l.Fields) < n {
		tok := ""
		if len(l.Fields) > 0 {
			tok = l.Fields[0]
		}
		return l.Errf(tok, "want at least %d fields, got %d", n, len(l.Fields))
	}
	return nil
}

// Str returns field i.
func (l *Line) Str(i int) (string, error) {
	if i < 0 || i >= len(l.Fields) {
		return "", l.Errf("", "missing field %d (line has %d)", i, len(l.Fields))
	}
	return l.Fields[i], nil
}

// Float parses field i as a finite float64 with |v| <= maxAbs.
func (l *Line) Float(i int) (float64, error) {
	s, err := l.Str(i)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > maxAbs {
		return 0, l.Errf(s, "not a finite number")
	}
	return v, nil
}

// Int parses field i as an int.
func (l *Line) Int(i int) (int, error) {
	s, err := l.Str(i)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, l.Errf(s, "not an integer")
	}
	return v, nil
}

// ParseFloat applies the Float policy (finite, |v| <= maxAbs) to a bare
// token, for readers that are not line-oriented.
func ParseFloat(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > maxAbs {
		return 0, false
	}
	return v, true
}

// ReadAll reads r to its end and returns the input as one string, which a
// reader then lexes in place: a token is a substring, and becomes a string
// of its own only where the reader keeps it. When r has a Stat method (an
// *os.File) the string is sized from it, so a file is read into a single
// allocation, and the string is the builder's buffer, not a copy of it. A
// read failure is a *ParseError "read: ..." at the line the input had
// reached.
func ReadAll(r io.Reader, file string) (string, error) {
	var sb strings.Builder
	if st, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := st.Stat(); err == nil && fi.Mode().IsRegular() {
			sb.Grow(int(fi.Size()))
		}
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return "", Errorf(file, 1+strings.Count(sb.String(), "\n"), "", "read: %v", err)
	}
	return sb.String(), nil
}

// Scanner hands out the lines of a whole input with file/line provenance,
// as Lines whose fields are substrings of the input: no line is copied.
type Scanner struct {
	src     string // the whole input
	pos     int    // start of the next line in src
	file    string
	num     int
	maxLine int
	err     error
	line    Line
	fields  []string // reused by every Line
}

// NewScanner reads r whole (ReadAll) and returns a Scanner over it. file
// names the source in errors (pass the format tag, e.g. "def", when no path
// is known). maxLine bounds the longest accepted line; 0 selects a 1 MiB
// default. A read failure or a longer line ends the scan, and Err reports
// it.
func NewScanner(r io.Reader, file string, maxLine int) *Scanner {
	if maxLine <= 0 {
		maxLine = 1024 * 1024
	}
	src, err := ReadAll(r, file)
	return &Scanner{src: src, file: file, maxLine: maxLine, err: err}
}

// Scan advances to the next non-empty line, reporting false at the end of
// the input or on an error.
func (s *Scanner) Scan() bool {
	for s.err == nil && s.pos < len(s.src) {
		text := s.src[s.pos:]
		if n := strings.IndexByte(text, '\n'); n >= 0 {
			text = text[:n]
		}
		if len(text) > s.maxLine {
			// The number of the last line read, as a bufio.Scanner
			// reports it.
			s.err = Errorf(s.file, s.num, "", "read: %v", bufio.ErrTooLong)
			return false
		}
		s.pos += len(text) + 1
		s.num++
		s.fields = appendFields(s.fields[:0], text)
		if len(s.fields) == 0 {
			continue
		}
		s.line = Line{File: s.file, Num: s.num, Fields: s.fields}
		return true
	}
	return false
}

// Remaining returns the number of input bytes after the current line. It
// bounds what a count the input declares can ask for: an entry takes at
// least one byte.
func (s *Scanner) Remaining() int { return max(len(s.src)-s.pos, 0) }

// asciiSpace marks the bytes strings.Fields splits ASCII text at.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of s to dst, exactly as strings.Fields
// splits them. ASCII text splits here without allocating; a line holding a
// byte >= 0x80 goes to strings.Fields, which also splits at Unicode spaces.
func appendFields(dst []string, s string) []string {
	n, start := len(dst), -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:n], strings.Fields(s)...)
		case asciiSpace[c]:
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// Line returns the current line. Valid after a true Scan, and only until the
// next Scan: its Fields slice is reused (the field strings themselves stay
// valid, and share the input's memory).
func (s *Scanner) Line() *Line { return &s.line }

// Err returns the read failure or over-long line that ended the scan, with
// provenance, or nil.
func (s *Scanner) Err() error { return s.err }
