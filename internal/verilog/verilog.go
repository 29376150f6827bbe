// Package verilog reads and writes the gate-level structural Verilog subset
// the flow consumes: one flat module with scalar ports, wires, and primitive
// instances using named port connections. Hierarchical instance names are
// emitted as escaped identifiers (\a/b/c ), so the logical hierarchy
// round-trips through the file format.
package verilog

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strings"

	"ppaclust/internal/netlist"
	"ppaclust/internal/scan"
)

// conn is one instance connection: a master pin and the name of its net.
type conn struct{ pin, net string }

// Write emits the design as structural Verilog. Output goes through one
// buffer, and the first failed write is the error returned.
func Write(w io.Writer, d *netlist.Design) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	line := make([]byte, 0, 4<<10) // reused for every line
	line = append(appendIdent(append(line, "module "...), d.Name), " ("...)
	for i, p := range d.Ports {
		if i > 0 {
			line = append(line, ", "...)
		}
		line = appendIdent(line, p.Name)
	}
	bw.Write(append(line, ");\n"...))
	for _, p := range d.Ports {
		dir := "input"
		switch p.Dir {
		case netlist.DirOutput:
			dir = "output"
		case netlist.DirInout:
			dir = "inout"
		}
		line = append(append(append(line[:0], "  "...), dir...), ' ')
		bw.Write(append(appendIdent(line, p.Name), ";\n"...))
	}
	// Wires: nets that are not port nets need declarations. A net named the
	// same as a port is the port itself.
	portNames := make(map[string]struct{}, len(d.Ports))
	for _, p := range d.Ports {
		portNames[p.Name] = struct{}{}
	}
	for _, n := range d.Nets {
		if _, isPort := portNames[n.Name]; !isPort {
			bw.Write(append(appendIdent(append(line[:0], "  wire "...), n.Name), ";\n"...))
		}
	}
	// Instance pins group per instance (start[i]..start[i+1] is instance i's
	// run of conns) and port pins on differently named nets become assign
	// lines, back to back in one buffer. One pass over the pins sizes both,
	// a second fills them in net/pin order.
	start := make([]int, len(d.Insts)+1)
	textLen, nAssigns := 0, 0
	for _, n := range d.Nets {
		for _, pr := range n.Pins {
			if !pr.IsPort() {
				start[pr.Inst+1]++
			} else if a, ok := appendAssign(line[:0], d, n, pr); ok {
				line = a
				textLen += len(a)
				nAssigns++
			}
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	conns := make([]conn, start[len(d.Insts)])
	next := append([]int(nil), start[:len(d.Insts)]...)
	text := make([]byte, 0, textLen)
	assigns := make([][]byte, 0, nAssigns)
	for _, n := range d.Nets {
		for _, pr := range n.Pins {
			if !pr.IsPort() {
				conns[next[pr.Inst]] = conn{d.PinName(pr), n.Name}
				next[pr.Inst]++
			} else if a, ok := appendAssign(text, d, n, pr); ok {
				assigns = append(assigns, a[len(text):])
				text = a
			}
		}
	}
	// Assigns go out sorted: net creation order differs between a parsed
	// design and its re-parsed emission, so iteration order alone is not
	// canonical.
	slices.SortFunc(assigns, bytes.Compare)
	for _, a := range assigns {
		bw.Write(a)
	}
	for i, inst := range d.Insts {
		cs := conns[start[i]:start[i+1]]
		// Order by (pin, net): duplicate pin connections must emit
		// deterministically. Equal pairs are equal strings, so any sort
		// gives the same text.
		slices.SortFunc(cs, func(a, b conn) int {
			if c := strings.Compare(a.pin, b.pin); c != 0 {
				return c
			}
			return strings.Compare(a.net, b.net)
		})
		line = append(append(line[:0], "  "...), inst.Master.Name...)
		line = append(appendIdent(append(line, ' '), inst.Name), " ("...)
		for j, c := range cs {
			if j > 0 {
				line = append(line, ", "...)
			}
			line = append(append(append(line, '.'), c.pin...), '(')
			line = append(appendIdent(line, c.net), ')')
		}
		bw.Write(append(line, ");\n"...))
	}
	bw.WriteString("endmodule\n")
	return bw.Flush()
}

// appendAssign appends the assign line of port pin pr when it rides on net n
// under another name ("assign out = net" for an output port, "assign net =
// in" otherwise); ok is false, and b unchanged, for any other pin.
func appendAssign(b []byte, d *netlist.Design, n *netlist.Net, pr netlist.PinRef) (_ []byte, ok bool) {
	port := d.Ports[pr.Pin]
	if port.Name == n.Name {
		return b, false
	}
	lhs, rhs := n.Name, port.Name
	if port.Dir == netlist.DirOutput {
		lhs, rhs = rhs, lhs
	}
	b = appendIdent(append(b, "  assign "...), lhs)
	b = appendIdent(append(b, " = "...), rhs)
	return append(b, ";\n"...), true
}

// appendIdent appends s as a Verilog identifier: as is when it is a plain
// name, else escaped (\s followed by the required trailing space).
func appendIdent(b []byte, s string) []byte {
	plain := s != ""
	for i := 0; i < len(s) && plain; i++ {
		c := s[i]
		plain = c == '_' || c == '$' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
	}
	if plain {
		return append(b, s...)
	}
	return append(append(append(b, '\\'), s...), ' ')
}

// Options configures a parse.
type Options struct {
	// File names the input in errors; defaults to "verilog".
	File string
	// Lenient tolerates assigns between two non-port names by skipping the
	// statement and recording a warning. Structural errors (unknown cells,
	// unknown pins, repeated instance or port names, broken syntax) are
	// fatal in both modes.
	Lenient bool
}

// ParseWith reads a structural Verilog module into a design bound to lib.
// Every instantiated cell must exist in lib. Strict parsing (the zero
// Options) makes every malformed construct a *scan.ParseError; in lenient
// mode the returned warnings list the statements that were skipped.
func ParseWith(r io.Reader, lib *netlist.Library, o Options) (*netlist.Design, []*scan.ParseError, error) {
	file := o.File
	if file == "" {
		file = "verilog"
	}
	p := &parser{lx: newLexer(r), lib: lib, file: file}
	if o.Lenient {
		p.warns = &scan.Warnings{}
	}
	d, err := p.parseModule()
	return d, p.warns.List(), err
}

// token is one lexeme. esc marks an escaped identifier, whose text may
// spell punctuation (\) is the name ")") and so never matches it.
type token struct {
	text string
	line int
	esc  bool
}

// is reports whether t is the punctuation or keyword s.
func (t token) is(s string) bool { return t.text == s && !t.esc }

// lexer streams tokens from the reader one at a time, so parsing a
// multi-hundred-MB netlist never holds the raw file bytes or a whole-file
// token slice — peak memory is one bufio window plus the design being built.
// The empty token text marks exhaustion: EOF, or a read failure left sticky
// in err.
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

func (lx *lexer) next() token {
	t := lx.scanToken()
	if t.text != "" {
		lx.last = t.line
	}
	return t
}

func (lx *lexer) scanToken() token {
	for {
		c, ok := lx.readByte()
		if !ok {
			return token{text: "", line: lx.last}
		}
		switch {
		case c == '\n':
			lx.line++
		case isSpace(c):
		case c == '/':
			d, ok := lx.readByte()
			if !ok {
				return token{text: "/", line: lx.line}
			}
			switch d {
			case '/':
				for {
					c, ok := lx.readByte()
					if !ok {
						return token{text: "", line: lx.last}
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
						return token{text: "", line: lx.last}
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
		case c == '\\': // escaped identifier: up to whitespace, backslash dropped
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
			return token{text: string(lx.buf), line: ln, esc: true}
		case punct[c] != "":
			return token{text: punct[c], line: lx.line}
		default:
			return lx.word(c)
		}
	}
}

// punct holds the one-byte punctuation tokens as constant strings, so
// handing one out allocates nothing.
var punct = [256]string{'(': "(", ')': ")", ',': ",", '.': ".", ';': ";", '=': "="}

// isSpace reports whether c is white space other than the newline the
// lexer counts lines by. Every token ends at it, escaped identifiers too,
// so a CRLF file reads as its LF rendering does.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// word accumulates an ordinary token starting with c, up to the next
// whitespace or punctuation byte (which stays unread for the next call).
func (lx *lexer) word(c byte) token {
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
	return token{text: string(lx.buf), line: ln}
}

type parser struct {
	lx      *lexer
	pend    token
	hasPend bool
	lib     *netlist.Library
	file    string
	warns   *scan.Warnings // nil in strict mode
}

func (p *parser) peek() token {
	if !p.hasPend {
		p.pend = p.lx.next()
		p.hasPend = true
	}
	return p.pend
}

func (p *parser) next() token {
	t := p.peek()
	p.hasPend = false
	return t
}

// eofErr reports token exhaustion: the underlying read error when one is
// pending, otherwise the parse-level message.
func (p *parser) eofErr(line int, format string, args ...any) *scan.ParseError {
	if p.lx.err != nil {
		return p.errf(p.lx.line, "", "read: %v", p.lx.err)
	}
	return p.errf(line, "", format, args...)
}

func (p *parser) errf(line int, tok, format string, args ...any) *scan.ParseError {
	return scan.Errorf(p.file, line, tok, format, args...)
}

func (p *parser) expect(text string) error {
	t := p.next()
	if !t.is(text) {
		if t.text == "" && p.lx.err != nil {
			return p.eofErr(t.line, "")
		}
		return p.errf(t.line, t.text, "expected %q", text)
	}
	return nil
}

func (p *parser) parseModule() (*netlist.Design, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name := p.next().text
	d := netlist.NewBuilder(name, p.lib)
	// Name indices of the module, for the length of the parse: the design
	// keeps none.
	insts := map[string]struct{}{}
	nets := map[string]*netlist.Net{}
	ports := map[string]int{} // port name -> index in d.Ports
	// Ports an assign has already put on their same-named net.
	onOwnNet := map[int]bool{}
	// Port list (names only).
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.peek().is(")") && !p.peek().is("") {
		p.next() // names declared with directions below
		if p.peek().is(",") {
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	// Body.
	netFor := func(name string) *netlist.Net {
		n := nets[name]
		if n == nil {
			n = d.AddNet(name)
			nets[name] = n
		}
		return n
	}
	for {
		t := p.next()
		switch t.text {
		case "endmodule":
			// Attach port pins to their same-named nets (unless an assign
			// already placed the port there).
			for pi, port := range d.Ports {
				if n := nets[port.Name]; n != nil && !onOwnNet[pi] {
					d.Connect(n, netlist.PinRef{Inst: -1, Pin: pi})
				}
			}
			return d.Build()
		case "":
			return nil, p.eofErr(t.line, "unexpected end of file before endmodule")
		case "input", "output", "inout":
			dir := netlist.DirInput
			if t.text == "output" {
				dir = netlist.DirOutput
			} else if t.text == "inout" {
				dir = netlist.DirInout
			}
			for {
				nm := p.next()
				if _, dup := ports[nm.text]; dup {
					return nil, p.errf(nm.line, nm.text, "duplicate port")
				}
				ports[nm.text] = len(d.Ports)
				d.AddPort(nm.text, dir)
				nx := p.next()
				if nx.is(";") {
					break
				}
				if !nx.is(",") {
					return nil, p.errf(nx.line, nx.text, "bad port declaration")
				}
			}
		case "assign":
			lhs := p.next().text
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs := p.next().text
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			// Canonicalize to (port, net). Checking the output-port case
			// first keeps port-to-port assigns stable across a write/parse
			// cycle: the writer emits "assign out = net" for output ports
			// and "assign net = in" for inputs.
			lp, lok := ports[lhs]
			rp, rok := ports[rhs]
			var port int
			var netName string
			switch {
			case lok && d.Ports[lp].Dir == netlist.DirOutput:
				port, netName = lp, rhs
			case rok:
				port, netName = rp, lhs
			case lok:
				port, netName = lp, rhs
			default:
				err := p.errf(t.line, lhs, "assign between non-ports %s = %s is outside the subset", lhs, rhs)
				if err := p.warns.Tolerate(err); err != nil {
					return nil, err
				}
				continue
			}
			if netName == d.Ports[port].Name {
				onOwnNet[port] = true
			}
			d.Connect(netFor(netName), netlist.PinRef{Inst: -1, Pin: port})
		case "wire":
			for {
				netFor(p.next().text)
				nx := p.next()
				if nx.is(";") {
					break
				}
				if !nx.is(",") {
					return nil, p.errf(nx.line, nx.text, "bad wire declaration")
				}
			}
		default:
			// Instance: MASTER name ( .pin(net), ... ) ;
			master := p.lib.Master(t.text)
			if master == nil {
				return nil, p.errf(t.line, t.text, "unknown cell")
			}
			instName := p.next()
			if _, dup := insts[instName.text]; dup {
				return nil, p.errf(instName.line, instName.text, "duplicate instance")
			}
			insts[instName.text] = struct{}{}
			inst := d.AddInstance(instName.text, master)
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for !p.peek().is(")") {
				if p.peek().is("") {
					return nil, p.eofErr(p.peek().line, "unexpected end of file in instance %s", instName.text)
				}
				if err := p.expect("."); err != nil {
					return nil, err
				}
				pin := p.next()
				ref, err := d.PinRefOf(inst.ID, pin.text)
				if err != nil {
					return nil, p.errf(pin.line, pin.text, "cell %s has no such pin", master.Name)
				}
				if err := p.expect("("); err != nil {
					return nil, err
				}
				netName := p.next()
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				d.Connect(netFor(netName.text), ref)
				if p.peek().is(",") {
					p.next()
				}
			}
			p.next() // ")"
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	}
}
