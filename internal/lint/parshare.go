// The parshare check: capture analysis of every function literal handed to
// internal/par, enforcing the pool's determinism contract at the source —
// closures may write only memory partitioned by their own index/block.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var parShareCheck = &Check{
	Name: "parshare",
	Doc: "write through a captured variable inside a par.ForEach/Blocks closure " +
		"that is not partitioned by the closure's index (shared append, shared-map " +
		"write, shared-scalar accumulation); use per-index slots or per-worker " +
		"partials merged in fixed order",
	Contract: "Every function literal passed to par.ForEach or par.Blocks runs " +
		"concurrently on the worker pool, and the repo's determinism contract requires " +
		"bit-identical results at any worker count. The closure may therefore write only " +
		"memory that its own index partitions: an element of a captured slice indexed by " +
		"the loop/block index (or a value derived from it), or a per-worker slot merged " +
		"afterwards in fixed order. Appends to a captured slice, writes into a captured " +
		"map, accumulation into a captured scalar, and writes through captured pointers " +
		"are findings: they race, and even under a lock their order would depend on " +
		"scheduling. Package-level variables are shared no matter how they are reached. " +
		"Helper functions and methods of the same package called from the closure are " +
		"analyzed one level deep with parameters classified from the call site " +
		"(index-derived argument -> partitioning parameter, captured reference argument " +
		"-> shared parameter); findings in a helper are reported at the call site. " +
		"Known false negatives (see DESIGN.md §16): aliases taken through non-derived " +
		"locals, calls through captured function values, helpers of helpers, channels.",
	Approved: []string{
		"out[i] = f(i) — per-index slot write, the par.ForEach idiom",
		"parts[w] += v inside par.Blocks — per-worker partial, merged in block order afterwards",
		"gp := &parts[w]; gp.xs = append(gp.xs, v) — per-worker gather arena via a derived local",
		"for k := lo; k < hi; k++ { dst[k] = v } — block-partitioned loop counter",
		"helper(dst, i, v) where helper writes dst[i] — one-level call following approves partitioned helpers",
	},
	Run: runParShare,
}

// parEntry names the two pool entry points; every parameter of their closure
// partitions writes.
var parEntry = map[string]bool{"ForEach": true, "Blocks": true}

func runParShare(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !internalPkg(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || pkgBase(fn.Pkg().Path()) != "par" ||
				!internalPkg(fn.Pkg().Path()) || !parEntry[fn.Name()] {
				return true
			}
			var lit *ast.FuncLit
			for _, a := range call.Args {
				if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
					lit = fl
				}
			}
			if lit == nil {
				return true // named function value: out of model
			}
			analyzeParClosure(p, fn.Name(), lit, report)
			return true
		})
	}
}

// litParams collects the closure's parameter objects — the index/block
// variables that partition writes.
func litParams(p *Package, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	for _, fld := range lit.Type.Params.List {
		for _, name := range fld.Names {
			if o := p.Info.Defs[name]; o != nil {
				out = append(out, o)
			}
		}
	}
	return out
}

// analyzeParClosure checks every write of the closure body (including nested
// literals, which still run on the worker) and follows same-package calls
// one level.
func analyzeParClosure(p *Package, entry string, lit *ast.FuncLit, report func(pos token.Pos, format string, args ...any)) {
	derived := derivedObjs(p, lit.Body, litParams(p, lit))
	captured := func(obj types.Object) bool {
		return pkgLevelVar(obj) || !declaredWithin(obj, lit)
	}
	checkTarget := func(pos token.Pos, e ast.Expr, form string) {
		root, steps := lvaluePath(p, e)
		if root == nil || !captured(root) {
			return
		}
		partitioned, mapWrite := classifyPath(p, steps, derived)
		switch {
		case mapWrite:
			report(pos, "par.%s closure writes captured map through %q: concurrent map writes race and bake iteration order in; shard per worker and merge in fixed order", entry, root.Name())
		case !partitioned:
			report(pos, "par.%s closure %s captured %q without partitioning by the closure index; use per-index slots or per-worker partials merged in fixed order", entry, form, root.Name())
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				form := "writes to"
				switch {
				case n.Tok != token.ASSIGN && n.Tok != token.DEFINE:
					form = "accumulates into"
				case len(n.Lhs) == len(n.Rhs) && isAppendCall(p, n.Rhs[i]):
					form = "appends to"
				case len(n.Lhs) == len(n.Rhs) && isSelfBinOp(p, lhs, n.Rhs[i]):
					form = "accumulates into"
				}
				if n.Tok == token.DEFINE {
					continue // new closure-local
				}
				checkTarget(n.Pos(), lhs, form)
			}
		case *ast.IncDecStmt:
			checkTarget(n.Pos(), n.X, "accumulates into")
		case *ast.CallExpr:
			switch calleeBuiltin(p, n) {
			case "copy", "clear", "delete":
				if len(n.Args) > 0 {
					checkTarget(n.Pos(), n.Args[0], "writes to")
				}
			case "":
				followLocalCall(p, entry, lit, n, derived, report)
			}
		}
		return true
	})
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(p *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && calleeBuiltin(p, call) == "append"
}

// isSelfBinOp reports whether rhs is a binary expression mentioning lhs's
// root — the spelled-out x = x + v accumulation.
func isSelfBinOp(p *Package, lhs, rhs ast.Expr) bool {
	be, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	root, _ := lvaluePath(p, lhs)
	return root != nil && exprUsesObj(p, be, root)
}

// followLocalCall analyzes one call from a par closure to a function or
// method declared in the same package. Parameters are classified from the
// call site; writes inside the callee rooted at a shared parameter, shared
// receiver, or package-level variable are reported at the call site. Calls
// inside the callee are not followed (one level, cycle-free by
// construction).
func followLocalCall(p *Package, entry string, lit *ast.FuncLit, call *ast.CallExpr,
	derived map[types.Object]bool, report func(pos token.Pos, format string, args ...any)) {

	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() != p.Types {
		return
	}
	decl := p.funcDecls()[fn]
	if decl == nil || decl.Body == nil {
		return
	}

	shared := map[types.Object]bool{}
	var seeds []types.Object
	classify := func(arg ast.Expr, param types.Object) {
		if param == nil {
			return
		}
		switch {
		case mentionsAny(p, arg, derived):
			seeds = append(seeds, param)
		case rootsOutside(p, arg, lit) && refType(param.Type()):
			shared[param] = true
		}
	}

	// Receiver.
	if decl.Recv != nil && len(decl.Recv.List) > 0 && len(decl.Recv.List[0].Names) > 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if recv := p.Info.Defs[decl.Recv.List[0].Names[0]]; recv != nil {
				classify(sel.X, recv)
			}
		}
	}
	// Positional parameters (variadic tail shares the last parameter).
	var params []types.Object
	for _, fld := range decl.Type.Params.List {
		for _, name := range fld.Names {
			params = append(params, p.Info.Defs[name])
		}
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= len(params) {
			pi = len(params) - 1
		}
		if pi < 0 {
			break
		}
		classify(arg, params[pi])
	}
	if len(shared) == 0 {
		// The callee can still write package-level state; fall through with
		// an empty shared-parameter set so only globals are findings.
	}

	calleeDerived := derivedObjs(p, decl.Body, seeds)
	reported := map[types.Object]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		form := "writes to"
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			if n.Tok != token.ASSIGN {
				form = "accumulates into"
			}
			targets = n.Lhs
		case *ast.IncDecStmt:
			form = "accumulates into"
			targets = []ast.Expr{n.X}
		case *ast.CallExpr:
			switch calleeBuiltin(p, n) {
			case "copy", "clear", "delete":
				if len(n.Args) > 0 {
					targets = n.Args[:1]
				}
			}
		}
		for _, t := range targets {
			root, steps := lvaluePath(p, t)
			if root == nil || reported[root] {
				continue
			}
			if !shared[root] && !pkgLevelVar(root) {
				continue
			}
			partitioned, mapWrite := classifyPath(p, steps, calleeDerived)
			switch {
			case mapWrite:
				reported[root] = true
				report(call.Pos(), "par.%s closure calls %s, which writes captured map through %q; shard per worker and merge in fixed order", entry, fn.Name(), root.Name())
			case !partitioned:
				reported[root] = true
				report(call.Pos(), "par.%s closure calls %s, which %s shared %q without partitioning by the closure index", entry, fn.Name(), form, root.Name())
			}
		}
		return true
	})
}
