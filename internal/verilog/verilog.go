// Package verilog reads and writes the gate-level structural Verilog subset
// the flow consumes: one flat module with scalar ports, wires, and primitive
// instances using named port connections. Hierarchical instance names are
// emitted as escaped identifiers (\a/b/c ), so the logical hierarchy
// round-trips through the file format. The reader lexes the whole file in
// place and copies only the names the design keeps, so the file is garbage
// once a parse returns.
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
	src, err := scan.ReadAll(r, file)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{lx: lexer{src: src, line: 1}, lib: lib, file: file}
	if o.Lenient {
		p.warns = &scan.Warnings{}
	}
	d, err := p.parseModule()
	return d, p.warns.List(), err
}

// lexer walks the whole file in place, one token per next. The current
// token is src[start:end] on line tokLine; esc marks an escaped identifier,
// whose text may spell punctuation (\) is the name ")") and so never
// matches it. The empty token that is not escaped marks the end of the
// input, and reports the line of the last non-empty token.
type lexer struct {
	src        string
	pos, line  int // the next unread byte and its line
	last       int // line of the last non-empty token
	start, end int
	tokLine    int
	esc        bool
}

// wordEnd marks the bytes that end an ordinary token: white space and
// punctuation, which the lexer reads next, and the backslash that starts
// an escaped identifier.
var wordEnd = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '\\': true,
	'(': true, ')': true, ',': true, '.': true, ';': true, '=': true}

// next advances to the next token.
func (lx *lexer) next() {
	src := lx.src
	i := lx.pos
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			lx.line++
			i++
		case isSpace(c):
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			n := strings.IndexByte(src[i+2:], '\n')
			if n < 0 {
				i = len(src)
				break
			}
			lx.line++
			i += 2 + n + 1
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			n := strings.Index(src[i+2:], "*/")
			if n < 0 {
				i = len(src)
				break
			}
			lx.line += strings.Count(src[i+2:i+2+n], "\n")
			i += 2 + n + 2
		case c == '\\': // escaped identifier: up to white space, backslash dropped
			j := i + 1
			for j < len(src) && !isSpace(src[j]) && src[j] != '\n' {
				j++
			}
			lx.set(i+1, j, true)
			return
		case c == '(' || c == ')' || c == ',' || c == '.' || c == ';' || c == '=':
			lx.set(i, i+1, false)
			return
		default: // an ordinary token, '/' included when it starts no comment
			j := i + 1
			for j < len(src) && !wordEnd[src[j]] {
				j++
			}
			lx.set(i, j, false)
			return
		}
	}
	lx.pos = len(src)
	lx.start, lx.end, lx.tokLine, lx.esc = i, i, lx.last, false
}

// set makes src[start:end] the current token, on the current line.
func (lx *lexer) set(start, end int, esc bool) {
	lx.start, lx.end, lx.tokLine, lx.esc, lx.pos = start, end, lx.line, esc, end
	if end > start {
		lx.last = lx.line
	}
}

// isSpace reports whether c is white space other than the newline the
// lexer counts lines by. Every token ends at it, escaped identifiers too,
// so a CRLF file reads as its LF rendering does.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

type parser struct {
	lx    lexer
	lib   *netlist.Library
	file  string
	warns *scan.Warnings // nil in strict mode
}

// tok returns the current token's text, a substring of the file: a name
// the design keeps is cloned, so the file is garbage once the parse ends.
func (p *parser) tok() string { return p.lx.src[p.lx.start:p.lx.end] }

// is reports whether the current token is the punctuation or keyword s.
func (p *parser) is(s string) bool { return !p.lx.esc && p.tok() == s }

// take returns the current token and its line, and advances past it.
func (p *parser) take() (string, int) {
	t, line := p.tok(), p.lx.tokLine
	p.lx.next()
	return t, line
}

func (p *parser) errf(line int, tok, format string, args ...any) *scan.ParseError {
	return scan.Errorf(p.file, line, strings.Clone(tok), format, args...)
}

// expect advances past the current token if it is s, and reports it
// otherwise.
func (p *parser) expect(s string) error {
	if !p.is(s) {
		return p.errf(p.lx.tokLine, p.tok(), "expected %q", s)
	}
	p.lx.next()
	return nil
}

func (p *parser) parseModule() (*netlist.Design, error) {
	p.lx.next()
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name, _ := p.take()
	d := netlist.NewBuilder(strings.Clone(name), p.lib)
	// Name indices of the module, for the length of the parse: the design
	// keeps none, and their keys are substrings of the file. They are
	// sized from the statements, which all end in ';': nearly every one
	// declares a wire or an instance, and a netlist has about as many nets
	// as instances. A map outgrows its hint where that does not hold.
	stmts := strings.Count(p.lx.src, ";")
	insts := make(map[string]struct{}, stmts/2)
	nets := make(map[string]*netlist.Net, stmts/2)
	ports := map[string]int{} // port name -> index in d.Ports
	// Ports an assign has already put on their same-named net.
	onOwnNet := map[int]bool{}
	// Port list (names only).
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.is(")") && !p.is("") {
		p.lx.next() // names declared with directions below
		if p.is(",") {
			p.lx.next()
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
			n = d.AddNet(strings.Clone(name))
			nets[name] = n
		}
		return n
	}
	for {
		kw, line := p.take()
		switch kw {
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
			return nil, p.errf(line, "", "unexpected end of file before endmodule")
		case "input", "output", "inout":
			dir := netlist.DirInput
			if kw == "output" {
				dir = netlist.DirOutput
			} else if kw == "inout" {
				dir = netlist.DirInout
			}
			for {
				nm, nmLine := p.take()
				if _, dup := ports[nm]; dup {
					return nil, p.errf(nmLine, nm, "duplicate port")
				}
				ports[nm] = len(d.Ports)
				d.AddPort(strings.Clone(nm), dir)
				if p.is(";") {
					p.lx.next()
					break
				}
				if !p.is(",") {
					return nil, p.errf(p.lx.tokLine, p.tok(), "bad port declaration")
				}
				p.lx.next()
			}
		case "assign":
			lhs, _ := p.take()
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs, _ := p.take()
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
				err := p.errf(line, lhs, "assign between non-ports %s = %s is outside the subset", lhs, rhs)
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
				name, _ := p.take()
				netFor(name)
				if p.is(";") {
					p.lx.next()
					break
				}
				if !p.is(",") {
					return nil, p.errf(p.lx.tokLine, p.tok(), "bad wire declaration")
				}
				p.lx.next()
			}
		default:
			// Instance: MASTER name ( .pin(net), ... ) ;
			master := p.lib.Master(kw)
			if master == nil {
				return nil, p.errf(line, kw, "unknown cell")
			}
			name, nameLine := p.take()
			seen := len(insts)
			if insts[name] = struct{}{}; len(insts) == seen {
				return nil, p.errf(nameLine, name, "duplicate instance")
			}
			inst := d.AddInstance(strings.Clone(name), master).ID
			if err := p.expect("("); err != nil {
				return nil, err
			}
			for !p.is(")") {
				if p.is("") {
					return nil, p.errf(p.lx.tokLine, "", "unexpected end of file in instance %s", name)
				}
				if err := p.expect("."); err != nil {
					return nil, err
				}
				pin, pinLine := p.take()
				mp := master.PinIndex(pin)
				if mp < 0 {
					return nil, p.errf(pinLine, pin, "cell %s has no such pin", master.Name)
				}
				if err := p.expect("("); err != nil {
					return nil, err
				}
				net, _ := p.take()
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				d.Connect(netFor(net), netlist.PinRef{Inst: inst, Pin: mp})
				if p.is(",") {
					p.lx.next()
				}
			}
			p.lx.next() // ")"
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	}
}
