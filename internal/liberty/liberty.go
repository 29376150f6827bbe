// Package liberty reads and writes the Liberty (.lib) subset that carries
// the electrical view: cell area and leakage, pin direction/capacitance, and
// NLDM delay/transition tables on timing arcs. File units follow the common
// academic convention — time ns, capacitance pF, power nW, energy fJ — and
// are converted to SI on parse.
package liberty

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// Unit conversions between file and SI.
const (
	timeUnit   = 1e-9  // ns
	capUnit    = 1e-12 // pF
	leakUnit   = 1e-9  // nW
	energyUnit = 1e-15 // fJ
)

// Parse-time magnitude bounds, in file units. They reject corrupt inputs
// and keep the fixed-precision writers' write->read->write fixpoint: table
// entries additionally must not be denormal-small, or the unit rescale
// would lose precision.
const (
	maxArea     = 1e8  // um^2
	maxLeak     = 1e8  // nW
	maxCap      = 1e6  // pF
	maxEnergy   = 1e8  // fJ
	maxTableVal = 1e12 // table index/value magnitude
	minTableVal = 1e-12
	maxDepth    = 64 // group nesting
)

// Write emits the library. Output goes through one buffer, and the first
// failed write is the error returned.
func Write(out io.Writer, lib *netlist.Library) error {
	w := bufio.NewWriterSize(out, 64<<10)
	fmt.Fprintf(w, "library (%s) {\n", lib.Name)
	fmt.Fprintf(w, "  time_unit : \"1ns\";\n  capacitive_load_unit (1,pf);\n")
	for _, name := range lib.MasterNames() {
		m := lib.Master(name)
		fmt.Fprintf(w, "  cell (%s) {\n", m.Name)
		fmt.Fprintf(w, "    area : %.4f;\n", m.Area())
		fmt.Fprintf(w, "    cell_leakage_power : %.4f;\n", m.Leakage/leakUnit)
		if m.Class == netlist.ClassMacro {
			fmt.Fprintf(w, "    is_macro_cell : true;\n")
		}
		for pi := range m.Pins {
			writePin(w, &m.Pins[pi])
		}
		fmt.Fprintf(w, "  }\n")
	}
	fmt.Fprintln(w, "}")
	return w.Flush()
}

func writePin(w io.Writer, p *netlist.MasterPin) {
	fmt.Fprintf(w, "    pin (%s) {\n", p.Name)
	dir := "input"
	switch p.Dir {
	case netlist.DirOutput:
		dir = "output"
	case netlist.DirInout:
		dir = "inout"
	}
	fmt.Fprintf(w, "      direction : %s;\n", dir)
	if p.Cap > 0 {
		fmt.Fprintf(w, "      capacitance : %.6f;\n", p.Cap/capUnit)
	}
	if p.MaxCap > 0 {
		fmt.Fprintf(w, "      max_capacitance : %.6f;\n", p.MaxCap/capUnit)
	}
	if p.Clock {
		fmt.Fprintf(w, "      clock : true;\n")
	}
	for ai := range p.Arcs {
		writeArc(w, &p.Arcs[ai])
	}
	fmt.Fprintf(w, "    }\n")
}

func arcKindName(k netlist.ArcKind) string {
	switch k {
	case netlist.ArcClkToQ:
		return "rising_edge"
	case netlist.ArcSetup:
		return "setup_rising"
	case netlist.ArcHold:
		return "hold_rising"
	default:
		return "combinational"
	}
}

func writeArc(w io.Writer, a *netlist.TimingArc) {
	fmt.Fprintf(w, "      timing () {\n")
	fmt.Fprintf(w, "        related_pin : \"%s\";\n", a.From)
	fmt.Fprintf(w, "        timing_type : %s;\n", arcKindName(a.Kind))
	if a.Energy > 0 {
		fmt.Fprintf(w, "        energy : %.6f;\n", a.Energy/energyUnit)
	}
	writeTable(w, "cell_rise", &a.Delay)
	if len(a.Slew.Values) > 0 {
		writeTable(w, "rise_transition", &a.Slew)
	}
	fmt.Fprintf(w, "      }\n")
}

func writeTable(w io.Writer, name string, t *netlist.Table) {
	if len(t.Values) == 0 {
		return
	}
	fmt.Fprintf(w, "        %s () {\n", name)
	fmt.Fprintf(w, "          index_1 (\"%s\");\n", joinScaled(t.Slews, timeUnit))
	fmt.Fprintf(w, "          index_2 (\"%s\");\n", joinScaled(t.Loads, capUnit))
	fmt.Fprintf(w, "          values ( \\\n")
	for i, row := range t.Values {
		sep := ", \\"
		if i == len(t.Values)-1 {
			sep = " \\"
		}
		fmt.Fprintf(w, "            \"%s\"%s\n", joinScaled(row, timeUnit), sep)
	}
	fmt.Fprintf(w, "          );\n        }\n")
}

func joinScaled(vs []float64, unit float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v/unit, 'g', 8, 64)
	}
	return strings.Join(parts, ", ")
}

// Options configures a parse.
type Options struct {
	// File names the input in errors; defaults to "liberty".
	File string
	// Lenient tolerates recoverable field errors — unparsable or
	// out-of-range numeric attributes, malformed NLDM tables — by skipping
	// the attribute (or dropping the timing arc) and recording a warning.
	// Structural errors (broken group syntax, duplicate cells) are fatal in
	// both modes.
	Lenient bool
}

// ParseWith reads a liberty file into a new library. Strict parsing (the
// zero Options) makes every malformed field a *scan.ParseError; in lenient
// mode the returned warnings list the fields and arcs that were skipped.
func ParseWith(r io.Reader, o Options) (*netlist.Library, []*scan.ParseError, error) {
	file := o.File
	if file == "" {
		file = "liberty"
	}
	b := &builder{file: file}
	if o.Lenient {
		b.warns = &scan.Warnings{}
	}
	p := &parser{lx: newLexer(r), file: file}
	g, err := p.parseGroup(0)
	// A mid-file read failure surfaces to the parser as plain token
	// exhaustion; report the I/O error rather than a bogus EOF diagnosis (or,
	// worse, accept a statement-style truncation of the library group).
	if lerr := p.lx.err; lerr != nil {
		return nil, b.warns.List(), scan.Errorf(file, p.lx.line, "", "read: %v", lerr)
	}
	if err != nil {
		return nil, b.warns.List(), err
	}
	if g.name != "library" {
		return nil, b.warns.List(), scan.Errorf(file, g.line, g.name, "top group is %q, want library", g.name)
	}
	libName := "lib"
	if len(g.args) > 0 && g.args[0] != "" {
		libName = g.args[0]
	}
	lib := netlist.NewLibrary(libName)
	for _, cg := range g.groups {
		if cg.name != "cell" {
			continue
		}
		if len(cg.args) == 0 || cg.args[0] == "" {
			if err := b.warns.Tolerate(scan.Errorf(file, cg.line, "cell", "cell without a name")); err != nil {
				return nil, b.warns.List(), err
			}
			continue
		}
		m, err := b.cell(cg)
		if err != nil {
			return nil, b.warns.List(), err
		}
		if err := lib.AddMaster(m); err != nil {
			return nil, b.warns.List(), scan.Errorf(file, cg.line, m.Name, "%v", err)
		}
	}
	return lib, b.warns.List(), nil
}

// group is a parsed liberty group: name(args) { attrs; subgroups }.
type group struct {
	name   string
	line   int
	args   []string
	attrs  map[string]attrVal
	groups []*group
}

// attrVal is an attribute value with the line it was defined on.
type attrVal struct {
	s    string
	line int
}

// builder turns the parsed group tree into a netlist.Library, applying the
// strict/lenient policy to numeric attributes.
type builder struct {
	file  string
	warns *scan.Warnings // nil in strict mode
}

// numAttr parses the named attribute as a finite number with |v| <= maxAbs,
// scaled by unit. ok reports whether a usable value was produced; a bad
// value is an error in strict mode and a recorded warning otherwise.
func (b *builder) numAttr(g *group, name string, unit, maxAbs float64) (v float64, ok bool, err error) {
	a, present := g.attrs[name]
	if !present {
		return 0, false, nil
	}
	raw, pok := scan.ParseFloat(a.s)
	if !pok || raw < -maxAbs || raw > maxAbs {
		return 0, false, b.warns.Tolerate(scan.Errorf(b.file, a.line, a.s,
			"%s: not a finite number in [-%g, %g]", name, maxAbs, maxAbs))
	}
	return raw * unit, true, nil
}

func (b *builder) cell(g *group) (*netlist.Master, error) {
	m := &netlist.Master{Name: g.args[0]}
	if v, ok, err := b.numAttr(g, "cell_leakage_power", leakUnit, maxLeak); err != nil {
		return nil, err
	} else if ok {
		m.Leakage = v
	}
	if g.attrs["is_macro_cell"].s == "true" {
		m.Class = netlist.ClassMacro
	}
	// Geometry comes from LEF; approximate from area if present so a
	// liberty-only library is still usable.
	if a, ok, err := b.numAttr(g, "area", 1, maxArea); err != nil {
		return nil, err
	} else if ok && a > 0 {
		m.Height = 1.4
		m.Width = a / m.Height
	}
	for _, pg := range g.groups {
		if pg.name != "pin" {
			continue
		}
		if len(pg.args) == 0 || pg.args[0] == "" {
			if err := b.warns.Tolerate(scan.Errorf(b.file, pg.line, "pin", "pin without a name")); err != nil {
				return nil, err
			}
			continue
		}
		pin := netlist.MasterPin{Name: pg.args[0]}
		switch pg.attrs["direction"].s {
		case "output":
			pin.Dir = netlist.DirOutput
		case "inout":
			pin.Dir = netlist.DirInout
		default:
			pin.Dir = netlist.DirInput
		}
		if v, ok, err := b.numAttr(pg, "capacitance", capUnit, maxCap); err != nil {
			return nil, err
		} else if ok {
			pin.Cap = v
		}
		if v, ok, err := b.numAttr(pg, "max_capacitance", capUnit, maxCap); err != nil {
			return nil, err
		} else if ok {
			pin.MaxCap = v
		}
		if pg.attrs["clock"].s == "true" {
			pin.Clock = true
		}
		for _, tg := range pg.groups {
			if tg.name != "timing" {
				continue
			}
			arc, err := b.arc(tg)
			if err != nil {
				if terr := b.warns.Tolerate(err); terr != nil {
					return nil, terr
				}
				continue // lenient: drop the malformed arc
			}
			pin.Arcs = append(pin.Arcs, arc)
		}
		m.AddPin(pin)
	}
	return m, nil
}

func (b *builder) arc(g *group) (netlist.TimingArc, error) {
	arc := netlist.TimingArc{From: strings.Trim(g.attrs["related_pin"].s, "\"")}
	switch g.attrs["timing_type"].s {
	case "rising_edge", "falling_edge":
		arc.Kind = netlist.ArcClkToQ
	case "setup_rising", "setup_falling":
		arc.Kind = netlist.ArcSetup
	case "hold_rising", "hold_falling":
		arc.Kind = netlist.ArcHold
	default:
		arc.Kind = netlist.ArcComb
	}
	// A bad energy value is always arc-fatal here; cell() downgrades it to
	// a dropped arc in lenient mode.
	if a, present := g.attrs["energy"]; present {
		v, ok := scan.ParseFloat(a.s)
		if !ok || v < -maxEnergy || v > maxEnergy {
			return arc, scan.Errorf(b.file, a.line, a.s, "energy: not a finite number in [-%g, %g]",
				float64(maxEnergy), float64(maxEnergy))
		}
		arc.Energy = v * energyUnit
	}
	for _, tg := range g.groups {
		switch tg.name {
		case "cell_rise", "cell_fall":
			t, err := b.table(tg)
			if err != nil {
				return arc, err
			}
			arc.Delay = t
		case "rise_transition", "fall_transition":
			t, err := b.table(tg)
			if err != nil {
				return arc, err
			}
			arc.Slew = t
		}
	}
	return arc, nil
}

func (b *builder) table(g *group) (netlist.Table, error) {
	var t netlist.Table
	var err error
	if t.Slews, err = b.list(g, "index_1", timeUnit); err != nil {
		return t, err
	}
	if t.Loads, err = b.list(g, "index_2", capUnit); err != nil {
		return t, err
	}
	values := g.attrs["values"]
	for _, row := range strings.Split(values.s, ";") {
		vals, err := parseList(b.file, values.line, row, timeUnit)
		if err != nil {
			return t, err
		}
		if len(vals) > 0 {
			t.Values = append(t.Values, vals)
		}
	}
	if len(t.Values) != len(t.Slews) {
		return t, scan.Errorf(b.file, g.line, g.name, "table has %d rows for %d slews",
			len(t.Values), len(t.Slews))
	}
	for _, row := range t.Values {
		if len(row) != len(t.Loads) {
			return t, scan.Errorf(b.file, g.line, g.name, "table row has %d cols for %d loads",
				len(row), len(t.Loads))
		}
	}
	return t, nil
}

func (b *builder) list(g *group, name string, unit float64) ([]float64, error) {
	a := g.attrs[name]
	return parseList(b.file, a.line, a.s, unit)
}

func parseList(file string, line int, s string, unit float64) ([]float64, error) {
	s = strings.Trim(s, "\" ")
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(strings.Trim(p, "\""))
		if p == "" {
			continue
		}
		v, ok := scan.ParseFloat(p)
		if !ok || (v != 0 && (v < -maxTableVal || v > maxTableVal ||
			(v > -minTableVal && v < minTableVal))) {
			return nil, scan.Errorf(file, line, p, "bad table number")
		}
		out = append(out, v*unit)
	}
	return out, nil
}

// ---- tokenizer and recursive-descent group parser ----

type tok struct {
	text string
	line int
}

// lexer streams tokens straight off the reader: a multi-MB liberty file is
// parsed without ever holding the raw bytes or a whole-file token slice, so
// peak memory tracks the library being built, not the file size. The empty
// token text marks exhaustion — EOF, or a read failure left sticky in err.
type lexer struct {
	br   *bufio.Reader
	line int
	last int    // line of the last real token; exhaustion reports here
	err  error  // sticky non-EOF read error
	buf  []byte // scratch for multi-byte tokens
}

func newLexer(r io.Reader) *lexer {
	return &lexer{br: bufio.NewReaderSize(r, 64<<10), line: 1}
}

func (lx *lexer) readByte() (byte, bool) {
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

func (lx *lexer) next() tok {
	t := lx.scanToken()
	if t.text != "" {
		lx.last = t.line
	}
	return t
}

func (lx *lexer) scanToken() tok {
	for {
		c, ok := lx.readByte()
		if !ok {
			return tok{"", lx.last}
		}
		switch {
		case c == '\n':
			lx.line++
		case c == ' ' || c == '\t' || c == '\r':
		case c == '\\': // line continuation
		case c == '/':
			d, ok := lx.readByte()
			if !ok {
				return lx.word(c)
			}
			if d != '*' {
				lx.br.UnreadByte()
				return lx.word(c)
			}
			prev := byte(0)
			for {
				c, ok := lx.readByte()
				if !ok {
					return tok{"", lx.last}
				}
				if c == '\n' {
					lx.line++
				}
				if prev == '*' && c == '/' {
					break
				}
				prev = c
			}
		case c == '(' || c == ')' || c == '{' || c == '}' || c == ';' || c == ':' || c == ',':
			return tok{string(c), lx.line}
		case c == '"': // quotes kept in the token; unterminated runs to EOF
			ln := lx.line
			lx.buf = append(lx.buf[:0], c)
			for {
				c, ok := lx.readByte()
				if !ok {
					break
				}
				if c == '\n' {
					lx.line++
				}
				lx.buf = append(lx.buf, c)
				if c == '"' {
					break
				}
			}
			return tok{string(lx.buf), ln}
		default:
			return lx.word(c)
		}
	}
}

// word accumulates an ordinary token starting with c, up to the next
// whitespace, punctuation, continuation or quote byte (left unread).
func (lx *lexer) word(c byte) tok {
	ln := lx.line
	lx.buf = append(lx.buf[:0], c)
	for {
		c, ok := lx.readByte()
		if !ok {
			break
		}
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' ||
			c == '(' || c == ')' || c == '{' || c == '}' || c == ';' || c == ':' || c == ',' ||
			c == '\\' || c == '"' {
			lx.br.UnreadByte()
			break
		}
		lx.buf = append(lx.buf, c)
	}
	return tok{string(lx.buf), ln}
}

// parser pulls tokens from the lexer through a two-slot lookahead buffer:
// slot 0 is the next token, and unread pushes the most recently consumed
// token back in front (parseGroup rewinds one token to re-parse "name (" as
// a sub-group after the attribute lookahead).
type parser struct {
	lx   *lexer
	pend [2]tok
	npnd int
	prev tok // most recently consumed, for unread
	file string
}

func (p *parser) peekTok() tok {
	if p.npnd == 0 {
		p.pend[0] = p.lx.next()
		p.npnd = 1
	}
	return p.pend[0]
}

func (p *parser) peek() string { return p.peekTok().text }

func (p *parser) line() int {
	t := p.peekTok()
	if t.text == "" {
		return p.lx.last
	}
	return t.line
}

func (p *parser) next() string {
	t := p.peekTok()
	p.pend[0] = p.pend[1]
	p.npnd--
	p.prev = t
	return t.text
}

func (p *parser) unread() {
	p.pend[1] = p.pend[0]
	p.pend[0] = p.prev
	p.npnd++
}

// parseGroup parses name ( args ) { body }.
func (p *parser) parseGroup(depth int) (*group, error) {
	if depth > maxDepth {
		return nil, scan.Errorf(p.file, p.line(), p.peek(), "groups nested deeper than %d", maxDepth)
	}
	g := &group{line: p.line(), attrs: map[string]attrVal{}}
	g.name = p.next()
	if p.next() != "(" {
		return nil, scan.Errorf(p.file, g.line, g.name, "expected ( after %s", g.name)
	}
	for p.peek() != ")" && p.peek() != "" {
		t := p.next()
		if t != "," {
			g.args = append(g.args, strings.Trim(t, "\""))
		}
	}
	p.next() // ")"
	if p.peek() != "{" {
		// Statement-style group without body.
		if p.peek() == ";" {
			p.next()
		}
		return g, nil
	}
	p.next() // "{"
	for {
		switch p.peek() {
		case "}":
			p.next()
			if p.peek() == ";" {
				p.next()
			}
			return g, nil
		case "":
			return nil, scan.Errorf(p.file, p.line(), g.name, "unexpected EOF in group %s", g.name)
		}
		nameLine := p.line()
		name := p.next()
		switch p.peek() {
		case ":":
			p.next()
			var val strings.Builder
			for p.peek() != ";" && p.peek() != "" {
				if val.Len() > 0 {
					val.WriteString(" ")
				}
				val.WriteString(p.next())
			}
			p.next() // ";"
			g.attrs[name] = attrVal{s: strings.TrimSpace(val.String()), line: nameLine}
		case "(":
			// Sub-group or complex attribute: rewind and parse as group.
			p.unread()
			sub, err := p.parseGroup(depth + 1)
			if err != nil {
				return nil, err
			}
			// Complex attributes (index_1, values, capacitive_load_unit)
			// are stored as joined-args attrs; real groups nest.
			if len(sub.groups) == 0 && len(sub.attrs) == 0 && sub.name != "timing" &&
				sub.name != "pin" && sub.name != "cell" &&
				sub.name != "cell_rise" && sub.name != "cell_fall" &&
				sub.name != "rise_transition" && sub.name != "fall_transition" {
				g.attrs[sub.name] = attrVal{s: strings.Join(sub.args, ";"), line: sub.line}
			} else {
				g.groups = append(g.groups, sub)
			}
		default:
			return nil, scan.Errorf(p.file, nameLine, name, "unexpected token %q after %q", p.peek(), name)
		}
	}
}
