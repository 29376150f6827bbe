// The syntactic project-contract checks (i32trunc and ndsource have their
// own files). Each is a pure function over one type-checked package;
// path-sensitive checks decide applicability from the package's import path,
// so testdata fixtures loaded under a faked path get identical treatment to
// the real tree.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var errorType = types.Universe.Lookup("error").Type()

// calleeFunc resolves the *types.Func a call invokes (package function or
// method), or nil for builtins, conversions and indirect calls.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// calleeBuiltin returns the builtin name a call invokes ("append", "panic",
// "println", ...) or "".
func calleeBuiltin(p *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// exprUsesObj reports whether obj appears as an identifier inside e.
func exprUsesObj(p *Package, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// ---- nopanic ----

var noPanicCheck = &Check{
	Name: "nopanic",
	Doc: "panic, log.Fatal*, or os.Exit in a library package under internal/ " +
		"(internal/par's documented worker-panic propagation path is exempt); " +
		"return an error and let cmd/ decide how to die",
	Run: runNoPanic,
}

func runNoPanic(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !internalPkg(p.Path) || pkgBase(p.Path) == "par" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if calleeBuiltin(p, call) == "panic" {
				report(call.Pos(), "panic in library package; return an error instead")
				return true
			}
			if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil {
				switch {
				case fn.Pkg().Path() == "log" && strings.HasPrefix(fn.Name(), "Fatal"):
					report(call.Pos(), "log.%s in library package; return an error instead", fn.Name())
				case fn.Pkg().Path() == "os" && fn.Name() == "Exit":
					report(call.Pos(), "os.Exit in library package; return an error instead")
				}
			}
			return true
		})
	}
}

// ---- rawindex ----

// rawIndexPkgs are the format readers that must route every token access
// through internal/scan's bounds-checked Line accessors.
var rawIndexPkgs = map[string]bool{
	"def": true, "lef": true, "liberty": true, "sdc": true, "verilog": true,
}

var rawIndexCheck = &Check{
	Name: "rawindex",
	Doc: "direct read through a []string token slice in a format package " +
		"(def, lef, liberty, sdc, verilog); use the scan.Line accessors " +
		"(Tok/Str/Float/Int after Require). Flagged bases are bare []string " +
		"variables and .Fields selectors: those hold raw line tokens. Stores " +
		"into a freshly made slice and reads through other struct fields " +
		"(domain data such as port lists, with their own invariants) are not " +
		"token access and stay exempt.",
	Run: runRawIndex,
}

// tokenSliceBase reports whether the indexed expression is a raw token
// slice: a plain []string variable (typically an alias of Line.Fields or a
// tokenizer result) or a selector of a field literally named Fields.
func tokenSliceBase(x ast.Expr) bool {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return e.Sel.Name == "Fields"
	}
	return false
}

func runRawIndex(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !internalPkg(p.Path) || !rawIndexPkgs[pkgBase(p.Path)] {
		return
	}
	for _, f := range p.Files {
		// Collect index expressions that are assignment targets: writing
		// parts[i] into a slice sized with make is construction, not token
		// access.
		stores := map[*ast.IndexExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					stores[ix] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok || stores[ix] || !tokenSliceBase(ix.X) {
				return true
			}
			t := p.Info.TypeOf(ix.X)
			if t == nil {
				return true
			}
			sl, ok := t.Underlying().(*types.Slice)
			if !ok {
				return true
			}
			if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.String {
				report(ix.Lbrack, "raw index into a token slice; use scan.Line accessors (Tok/Str/Float/Int)")
			}
			return true
		})
	}
}

// ---- errdrop ----

// errDropPkgs are the packages whose error results must never be discarded:
// the scan layer, the five format readers, and the flow driver.
var errDropPkgs = map[string]bool{
	"scan": true, "def": true, "lef": true, "liberty": true,
	"sdc": true, "verilog": true, "flow": true,
}

var errDropCheck = &Check{
	Name: "errdrop",
	Doc: "error result of a scan/parser/flow API call discarded (call used as a " +
		"bare statement, or its error assigned to _)",
	Run: runErrDrop,
}

// errDropScoped reports whether call invokes a guarded API and returns the
// display name and the indices of its error results.
func errDropScoped(p *Package, call *ast.CallExpr) (name string, errIdx []int) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return "", nil
	}
	path := fn.Pkg().Path()
	if !internalPkg(path) || !errDropPkgs[pkgBase(path)] {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", nil
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			errIdx = append(errIdx, i)
		}
	}
	return pkgBase(path) + "." + fn.Name(), errIdx
}

func runErrDrop(p *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, errIdx := errDropScoped(p, call); len(errIdx) > 0 {
						report(call.Pos(), "error result of %s discarded; handle or record it", name)
					}
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				name, errIdx := errDropScoped(p, call)
				if len(errIdx) == 0 {
					return true
				}
				for _, i := range errIdx {
					if i >= len(n.Lhs) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						report(n.Pos(), "error result of %s assigned to _; handle or record it", name)
					}
				}
			}
			return true
		})
	}
}

// ---- printlib ----

var printLibCheck = &Check{
	Name: "printlib",
	Doc: "fmt.Print/Printf/Println or builtin print/println writing to stdout " +
		"from a package under internal/; output belongs to cmd/ (or an io.Writer parameter)",
	Run: runPrintLib,
}

func runPrintLib(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !internalPkg(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeBuiltin(p, call) {
			case "print", "println":
				report(call.Pos(), "builtin %s writes to stderr from a library package; take an io.Writer or return data", calleeBuiltin(p, call))
				return true
			}
			if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				switch fn.Name() {
				case "Print", "Printf", "Println":
					report(call.Pos(), "fmt.%s writes to stdout from a library package; take an io.Writer or return data", fn.Name())
				}
			}
			return true
		})
	}
}
