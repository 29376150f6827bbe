// The i32trunc check: unguarded int32/uint32 narrowing of length-derived or
// accumulated counts on the compact-CSR build paths. At the 1M-cell scale of
// the flow a silent truncation does not fail — it corrupts connectivity and
// quietly changes every downstream quality number.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// i32truncPkgs are the CSR/SoA builder packages: everything that packs
// len()-sized offsets into int32 arrays.
var i32truncPkgs = map[string]bool{
	"netlist": true, "hypergraph": true, "sta": true,
	"route": true, "cts": true, "place": true,
}

var i32TruncCheck = &Check{
	Name: "i32trunc",
	Doc: "int32(x)/uint32(x) conversion of a len()-derived or accumulated count with no " +
		"preceding math.MaxInt32 bound check in the same function, in a CSR/SoA builder " +
		"package (netlist, hypergraph, sta, route, cts, place); guard with an explicit " +
		"> math.MaxInt32 error return",
	Run: runI32Trunc,
}

func runI32Trunc(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !internalPkg(p.Path) || !i32truncPkgs[pkgBase(p.Path)] {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncTrunc(p, fd, report)
		}
	}
}

// checkFuncTrunc analyzes one function declaration: collects its MaxInt32
// guards and accumulated counters, then flags narrowing conversions that no
// guard precedes.
func checkFuncTrunc(p *Package, fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...any)) {
	// Guard positions: if-conditions comparing something against
	// math.MaxInt32 / math.MaxUint32.
	var guards []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condMentionsMax32(p, ifs.Cond) {
			guards = append(guards, ifs.Pos())
		}
		return true
	})
	guardedBefore := func(pos token.Pos) bool {
		for _, g := range guards {
			if g < pos {
				return true
			}
		}
		return false
	}

	// Accumulated counters: objects assigned with op-assign or the
	// spelled-out x = x + ... form. Plain x++ counters are deliberately out
	// of model: in this tree they are dense packing indices bounded by the
	// container they fill, whose size the len()-derived half already guards.
	accum := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.MUL_ASSIGN:
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if o := p.Info.Uses[id]; o != nil {
							accum[o] = true
						}
					}
				}
			case token.ASSIGN:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					o := p.Info.Uses[id]
					if o == nil {
						continue
					}
					if be, ok := ast.Unparen(n.Rhs[i]).(*ast.BinaryExpr); ok &&
						(be.Op == token.ADD || be.Op == token.MUL) && exprUsesObj(p, be, o) {
						accum[o] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := p.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || (b.Kind() != types.Int32 && b.Kind() != types.Uint32) {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if av, ok := p.Info.Types[arg]; ok && av.Value != nil {
			return true // constant: checked at compile time
		}
		if t := p.Info.TypeOf(arg); t == nil || narrow32(t) {
			return true // already 32 bits or narrower: no truncation
		}
		why := ""
		switch {
		case containsLen(p, arg):
			why = "a len()-derived count"
		case isAccumIdent(p, arg, accum):
			why = "an accumulated count"
		default:
			return true
		}
		if !guardedBefore(call.Pos()) {
			report(call.Pos(), "%s(%s) narrows %s with no preceding math.MaxInt32 bound check in %s; at 1M+ scale silent truncation corrupts connectivity — guard with an explicit > math.MaxInt32 error return",
				b.Name(), exprString(p, arg), why, fd.Name.Name)
		}
		return true
	})
}

// condMentionsMax32 reports whether a condition references math.MaxInt32 or
// math.MaxUint32 inside a comparison.
func condMentionsMax32(p *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.GTR, token.GEQ, token.LSS, token.LEQ:
			if mentionsMax32Const(p, be.X) || mentionsMax32Const(p, be.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

func mentionsMax32Const(p *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if c, ok := p.Info.Uses[id].(*types.Const); ok {
			if c.Name() == "MaxInt32" || c.Name() == "MaxUint32" {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsLen reports whether e contains a call to the len builtin.
func containsLen(p *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && calleeBuiltin(p, call) == "len" {
			found = true
		}
		return !found
	})
	return found
}

// isAccumIdent reports whether e is an identifier the enclosing function
// accumulates into.
func isAccumIdent(p *Package, e ast.Expr, accum map[types.Object]bool) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	o := p.Info.Uses[id]
	return o != nil && accum[o]
}

// narrow32 reports whether t's underlying basic type is 32 bits or narrower,
// so an int32/uint32 conversion cannot drop high bits.
func narrow32(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int32, types.Uint32, types.Int16, types.Uint16, types.Int8, types.Uint8, types.Bool:
		return true
	}
	return false
}

// exprString renders a short source-ish form of e for messages.
func exprString(p *Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.CallExpr:
		if calleeBuiltin(p, x) == "len" {
			return "len(...)"
		}
	}
	return "..."
}
