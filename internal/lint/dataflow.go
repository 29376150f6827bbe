// The capture/dataflow layer under the concurrency- and scale-aware checks
// (parshare, i32trunc). It is deliberately lightweight — no SSA, no escape
// analysis — and works on three ideas:
//
//  1. Capture classification by position: an object written inside a
//     function literal is *captured* when its declaration lies outside the
//     literal's source range (closure locals and parameters are inside).
//
//  2. An *index-derived* object set per closure: the closure's parameters
//     (the par.ForEach element index, the par.Blocks worker id and
//     block bounds) seed a fixpoint that adds every local assigned from an
//     expression mentioning a derived object — loop counters `for k := lo;
//     k < hi`, per-worker views `sc := scratch[w]`, range variables over
//     derived slices. A write is *partitioned* when some slice/array index
//     (or slice-expression bound) on its access path mentions a derived
//     object; partitioned writes touch worker-private slots and are the
//     approved parallel idiom.
//
//  3. One level of local call following: a call from a closure to a
//     function or method declared in the same package is analyzed with its
//     parameters classified from the call site (derived argument ->
//     derived parameter, captured reference argument -> shared parameter).
//     Calls inside the followee are not followed further (cycle-guarded by
//     construction), so helpers-of-helpers are a documented false-negative
//     class, as are aliases taken through non-derived locals and calls
//     through captured function values.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// funcDecls maps each package-level function/method object to its
// declaration, for the one-level call following. Built lazily, once per
// package.
func (p *Package) funcDecls() map[*types.Func]*ast.FuncDecl {
	if p.decls != nil {
		return p.decls
	}
	p.decls = map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					p.decls[fn] = fd
				}
			}
		}
	}
	return p.decls
}

// declaredWithin reports whether obj's declaration lies inside node's source
// range.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= n.Pos() && obj.Pos() <= n.End()
}

// mentionsAny reports whether e references any object of set.
func mentionsAny(p *Package, e ast.Expr, set map[types.Object]bool) bool {
	if e == nil || len(set) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := p.Info.Uses[id]; o != nil && set[o] {
				found = true
			}
		}
		return !found
	})
	return found
}

// derivedObjs computes the index-derived set of body: seeds plus, to a
// fixpoint, every variable assigned (or range-bound) from an expression
// mentioning a derived object.
func derivedObjs(p *Package, body ast.Node, seeds []types.Object) map[types.Object]bool {
	derived := map[types.Object]bool{}
	for _, s := range seeds {
		if s != nil {
			derived[s] = true
		}
	}
	addIdent := func(id *ast.Ident) bool {
		var o types.Object
		if o = p.Info.Defs[id]; o == nil {
			o = p.Info.Uses[id]
		}
		if _, ok := o.(*types.Var); ok && !derived[o] {
			derived[o] = true
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					var rhs ast.Expr
					if len(n.Lhs) == len(n.Rhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0] // multi-value call or comma-ok
					}
					if rhs != nil && mentionsAny(p, rhs, derived) {
						if addIdent(id) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if mentionsAny(p, n.X, derived) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							if addIdent(id) {
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return derived
}

// pathStep is one access step of an lvalue, recorded root-outward.
type pathStep struct {
	index   ast.Expr       // non-nil for an index step s[e]
	slice   *ast.SliceExpr // non-nil for a slicing step s[lo:hi]
	mapBase bool           // index step whose base is a map
}

// lvaluePath decomposes an lvalue (or a write target such as copy's dst)
// into its root object and access steps from root outward. The root of
// `p.buf[w].xs` is the object of `p`; a selector through a package
// qualifier roots at the package-level variable itself. Returns a nil root
// for forms the layer does not model.
func lvaluePath(p *Package, e ast.Expr) (types.Object, []pathStep) {
	var rev []pathStep
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			o := p.Info.Uses[x]
			if o == nil {
				o = p.Info.Defs[x]
			}
			if _, ok := o.(*types.Var); !ok {
				return nil, nil
			}
			// Reverse into root-outward order.
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return o, rev
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
					o := p.Info.Uses[x.Sel]
					if _, ok := o.(*types.Var); !ok {
						return nil, nil
					}
					for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
						rev[i], rev[j] = rev[j], rev[i]
					}
					return o, rev
				}
			}
			e = x.X
		case *ast.IndexExpr:
			rev = append(rev, pathStep{index: x.Index, mapBase: isMapType(p.Info.TypeOf(x.X))})
			e = x.X
		case *ast.SliceExpr:
			rev = append(rev, pathStep{slice: x})
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, nil
		}
	}
}

// isMapType reports whether t (possibly through a pointer) is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	u := t.Underlying()
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem().Underlying()
	}
	_, ok := u.(*types.Map)
	return ok
}

// classifyPath walks steps root-outward and reports whether the write is
// partitioned by a derived index before any map-index step, or hits a map
// first (mapWrite). A write with neither property is a plain shared write.
func classifyPath(p *Package, steps []pathStep, derived map[types.Object]bool) (partitioned, mapWrite bool) {
	for _, st := range steps {
		switch {
		case st.slice != nil:
			if mentionsAny(p, st.slice.Low, derived) || mentionsAny(p, st.slice.High, derived) ||
				mentionsAny(p, st.slice.Max, derived) {
				partitioned = true
			}
		case st.mapBase:
			if !partitioned {
				return false, true
			}
		case st.index != nil:
			if mentionsAny(p, st.index, derived) {
				partitioned = true
			}
		}
	}
	return partitioned, false
}

// pkgLevelVar reports whether obj is a package-level variable (of any
// package): shared by every goroutine regardless of capture.
func pkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// refType reports whether t can alias memory visible to the caller: a
// pointer, slice, or map (channels and interfaces are out of model).
func refType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// rootsOutside reports whether e references any variable declared outside
// scope (the closure): such an expression can carry shared state into a
// callee.
func rootsOutside(p *Package, e ast.Expr, scope ast.Node) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := p.Info.Uses[id].(*types.Var); ok {
				if pkgLevelVar(v) || !declaredWithin(v, scope) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
