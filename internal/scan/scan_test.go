package scan

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestScannerTracksLines(t *testing.T) {
	src := "a b c\n\n  \n d e\n"
	sc := NewScanner(strings.NewReader(src), "x.def", 0)
	if !sc.Scan() {
		t.Fatal("first Scan failed")
	}
	if ln := sc.Line(); ln.Num != 1 || ln.Len() != 3 {
		t.Fatalf("line 1: %+v", ln)
	}
	if !sc.Scan() {
		t.Fatal("second Scan failed")
	}
	if ln := sc.Line(); ln.Num != 4 || ln.Fields[0] != "d" {
		t.Fatalf("blank lines not skipped with numbering kept: %+v", ln)
	}
	if sc.Scan() {
		t.Fatal("Scan past EOF")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLineAccessors(t *testing.T) {
	ln := &Line{File: "f.lef", Num: 7, Fields: []string{"SIZE", "1.5", "BY", "x", "3"}}
	if err := ln.Require(5); err != nil {
		t.Fatal(err)
	}
	if err := ln.Require(6); err == nil {
		t.Fatal("Require(6) passed on 5 fields")
	} else {
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 7 || pe.File != "f.lef" {
			t.Fatalf("Require error lost provenance: %v", err)
		}
	}
	if v, err := ln.Float(1); err != nil || v != 1.5 {
		t.Fatalf("Float(1)=%v,%v", v, err)
	}
	if _, err := ln.Float(3); err == nil {
		t.Fatal("Float of non-number passed")
	}
	if _, err := ln.Float(9); err == nil {
		t.Fatal("Float out of range passed")
	}
	if v, err := ln.Int(4); err != nil || v != 3 {
		t.Fatalf("Int(4)=%v,%v", v, err)
	}
	if _, err := ln.Int(1); err == nil {
		t.Fatal("Int of float passed")
	}
}

func TestFloatRejectsNonFinite(t *testing.T) {
	for _, tok := range []string{"NaN", "Inf", "-Inf", "+Inf", "1e300", "-2e31"} {
		ln := &Line{File: "f", Num: 1, Fields: []string{tok}}
		if _, err := ln.Float(0); err == nil {
			t.Fatalf("Float(%q) passed", tok)
		}
		if _, ok := ParseFloat(tok); ok {
			t.Fatalf("ParseFloat(%q) passed", tok)
		}
	}
	if v, ok := ParseFloat("-1.25e3"); !ok || v != -1250 {
		t.Fatalf("ParseFloat(-1.25e3)=%v,%v", v, ok)
	}
}

func TestParseErrorFormat(t *testing.T) {
	e := Errorf("a.def", 12, "ROW", "want %d fields", 13)
	want := `a.def:12: "ROW": want 13 fields`
	if e.Error() != want {
		t.Fatalf("Error()=%q want %q", e.Error(), want)
	}
	e2 := Errorf("b.sdc", 0, "", "no create_clock")
	if e2.Error() != "b.sdc: no create_clock" {
		t.Fatalf("Error()=%q", e2.Error())
	}
}

// TestWarningsTolerate pins the one strict/lenient policy the readers share:
// a nil *Warnings (strict) hands every error back and records nothing; a
// non-nil one (lenient) swallows it, keeping a *ParseError as is and wrapping
// a plain error's message; a nil error is nil in both modes.
func TestWarningsTolerate(t *testing.T) {
	pe := Errorf("f", 1, "tok", "bad field")
	plain := errors.New("plain failure")

	var strict *Warnings
	for _, err := range []error{pe, plain, nil} {
		if got := strict.Tolerate(err); got != err {
			t.Fatalf("strict Tolerate(%v) = %v, want the error back", err, got)
		}
	}
	if strict.List() != nil {
		t.Fatalf("strict mode recorded %v", strict.List())
	}

	lenient := &Warnings{}
	for _, err := range []error{pe, plain, nil} {
		if got := lenient.Tolerate(err); got != nil {
			t.Fatalf("lenient Tolerate(%v) = %v, want nil", err, got)
		}
	}
	list := lenient.List()
	if len(list) != 2 {
		t.Fatalf("lenient mode recorded %d warnings, want 2 (nil err skipped): %v", len(list), list)
	}
	if list[0] != pe {
		t.Fatalf("a *ParseError was not kept as is: %#v", list[0])
	}
	if *list[1] != (ParseError{Msg: "plain failure"}) {
		t.Fatalf("a plain error was not wrapped by message: %#v", list[1])
	}
}

// TestScanFieldsMatchesStringsFields compares the scanner's split with
// strings.Fields on ASCII control spaces, Unicode spaces (NBSP, NEL, an em
// space), invalid UTF-8 and lines with no field at all, appending to a
// non-empty slice as Scan's reuse does.
func TestScanFieldsMatchesStringsFields(t *testing.T) {
	for _, s := range []string{
		"", " ", "\t\v\f\r ", "a", " a ", "a b", "ROW  r\tsite\v0\f0\rN",
		"- n1 ( u1 A ) ( PIN x ) ;", "trailing\t", "\x00 \x01", "\x7f\x7f x",
		"a\u00a0b", "a\u0085b", "a\u2003b\u3000c", "\u00a0 lead", "\u00e9 f",
		"bad \xff utf8", "\xc2", "\xc2\x85", "x\xe2\x80", "\xffa \xa0b",
	} {
		got := appendFields([]string{"stale"}, s)[1:]
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("%q: split %q, strings.Fields %q", s, got, want)
		}
	}
}

// TestScannerMaxLine: a line of maxLine bytes is read, a longer one ends the
// scan with the over-long-line error, numbered as the last line read.
func TestScannerMaxLine(t *testing.T) {
	src := "a\n\n" + strings.Repeat("x", 8) + "\n" + strings.Repeat("y", 9) + "\nz\n"
	sc := NewScanner(strings.NewReader(src), "f.def", 8)
	var got []int
	for sc.Scan() {
		got = append(got, sc.Line().Num)
	}
	if !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("scanned lines %v, want [1 3]", got)
	}
	var pe *ParseError
	if err := sc.Err(); !errors.As(err, &pe) || pe.File != "f.def" || pe.Line != 3 || !strings.Contains(pe.Msg, "too long") {
		t.Fatalf("over-long line: %v, want a too-long error at f.def:3", err)
	}
}

// TestReadFailureIsParseError: a reader that fails comes back from ReadAll
// and from a Scanner as a *ParseError "read: ..." at the line the input had
// reached, and the Scanner hands out no line.
func TestReadFailureIsParseError(t *testing.T) {
	boom := errors.New("disk on fire")
	r := func() io.Reader { return io.MultiReader(strings.NewReader("a b\nc\nd"), iotest.ErrReader(boom)) }
	_, err := ReadAll(r(), "f.lef")
	var pe *ParseError
	if !errors.As(err, &pe) || pe.File != "f.lef" || pe.Line != 3 || pe.Msg != "read: disk on fire" {
		t.Fatalf("ReadAll: %v, want read: disk on fire at f.lef:3", err)
	}
	sc := NewScanner(r(), "f.lef", 0)
	if sc.Scan() {
		t.Fatalf("Scan handed out %v from a failed read", sc.Line())
	}
	if err := sc.Err(); !errors.As(err, &pe) || pe.Line != 3 || pe.Msg != "read: disk on fire" {
		t.Fatalf("Scanner: %v, want read: disk on fire at line 3", err)
	}
}

// TestReadAllSizedFromStat reads a file through its Stat size: the text
// takes one allocation of its own length, not the doubling a reader of
// unknown length grows by, and comes back as written.
func TestReadAllSizedFromStat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.def")
	want := strings.Repeat("- u INV_X1 + PLACED ( 1 2 ) N ;\n", 1<<15)
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadAll(f, path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("read %d bytes, wrote %d", len(got), len(want))
	}
	// The text, plus io.Copy's 32 KiB buffer and a few small objects.
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > uint64(len(want))+64<<10 {
		t.Fatalf("%d bytes allocated to read %d", bytes, len(want))
	}
}
