// The ndsource check: nondeterminism entering through the side doors the
// other checks don't watch — wall-clock reads, the process-global math/rand
// source, and map iteration order flowing straight into serialized output.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// timeNowAllowed names the internal packages whose *contract* is wall-clock
// measurement: flow stamps per-stage runtimes into its Result and
// experiments reports suite runtimes. Both keep timings out of the
// determinism-gated quality fields; everywhere else time.Now is a
// nondeterminism bug.
var timeNowAllowed = map[string]bool{"flow": true, "experiments": true}

var ndSourceCheck = &Check{
	Name: "ndsource",
	Doc: "nondeterminism source in a library package: time.Now outside flow/experiments, " +
		"package-global math/rand functions (use rand.New(rand.NewSource(seed))), or a " +
		"map range whose body feeds JSON/writer output",
	Run: runNDSource,
}

func runNDSource(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !internalPkg(p.Path) {
		return
	}
	base := pkgBase(p.Path)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				sig, _ := fn.Type().(*types.Signature)
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" && !timeNowAllowed[base] {
						report(n.Pos(), "time.Now in a library package outside flow/experiments; wall-clock reads break reproducibility — plumb timings from the caller or move them behind the flow/experiments boundary")
					}
				case "math/rand", "math/rand/v2":
					if sig != nil && sig.Recv() == nil && fn.Name() != "New" &&
						fn.Name() != "NewSource" && fn.Name() != "NewPCG" && fn.Name() != "NewChaCha8" {
						report(n.Pos(), "package-global math/rand.%s draws from the process-wide auto-seeded source; use a locally seeded rand.New(rand.NewSource(seed))", fn.Name())
					}
				}
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if why := mapOutputUse(p, n); why != "" {
					report(n.For, "map iteration order is random and this range body %s; collect keys, sort, then range the sorted slice", why)
				}
			}
			return true
		})
	}
}

// mapOutputUse classifies a map-range body: "" when benign, otherwise the
// way it feeds serialized output.
func mapOutputUse(p *Package, rs *ast.RangeStmt) string {
	why := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "encoding/json":
			why = "feeds encoding/json (" + fn.Name() + ")"
		case fn.Pkg().Path() == "fmt" && (fn.Name() == "Fprint" || fn.Name() == "Fprintf" || fn.Name() == "Fprintln"):
			why = "writes through fmt." + fn.Name()
		}
		return why == ""
	})
	return why
}
