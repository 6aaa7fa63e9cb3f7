package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// analyzerWallTime flags nondeterminism sources — wall-clock reads and
// the globally seeded math/rand — in every internal/ package except
// obs and parallel, the two that measure time by design (metrics,
// stage timings). Everything else under internal/ feeds a golden, a
// scenario build or a cached response body: a time.Now() or rand.Intn()
// there would not fail any test immediately; it would silently make
// golden refreshes unreproducible — or cached bodies history-dependent
// — which is the failure mode the seeded-run contract exists to
// prevent. The commands under cmd/ stay out of scope: they time whole
// runs for their reports.
//
// Allowed: constructing scenario-seeded sources (rand.New,
// rand.NewSource, and every other rand.New* constructor) and calling
// methods on a *rand.Rand derived from them — that is the sanctioned
// determinism idiom (one seed per experiment, derived from env.Seed).
func analyzerWallTime() *Analyzer {
	return &Analyzer{
		Name: "walltime",
		Run:  runWallTime,
	}
}

// wallTimeExempt are the internal/ packages (and their subpackages)
// the rule skips.
var wallTimeExempt = []string{"internal/obs", "internal/parallel"}

// timeFuncs are the wall-clock reads the rule bans.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallTime(prog *Program, pkg *Package) []Finding {
	if !inWallTimeScope(prog, pkg) {
		return nil
	}
	var out []Finding
	flag := func(n ast.Node, msg string) {
		out = append(out, Finding{Pos: prog.Fset.Position(n.Pos()), Rule: "walltime", Message: msg})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch funcPkgPath(f) {
			case "time":
				if timeFuncs[f.Name()] {
					flag(sel, fmt.Sprintf("wall-clock time.%s in a seed-determined package; "+
						"outputs must be a pure function of the scenario seed", f.Name()))
				}
			case "math/rand", "math/rand/v2":
				// Methods on *rand.Rand are the seeded idiom; package-level
				// functions draw from the shared global source. The New*
				// constructors build seeded sources and stay legal.
				if f.Type().(*types.Signature).Recv() != nil {
					return true
				}
				if strings.HasPrefix(f.Name(), "New") {
					return true
				}
				flag(sel, fmt.Sprintf("globally seeded %s.%s in a seed-determined package; "+
					"derive a *rand.Rand from the scenario seed instead", funcPkgPath(f), f.Name()))
			}
			return true
		})
	}
	return out
}

func inWallTimeScope(prog *Program, pkg *Package) bool {
	if !strings.HasPrefix(pkg.Path, prog.ModulePath+"/internal/") {
		return false
	}
	for _, exempt := range wallTimeExempt {
		full := prog.ModulePath + "/" + exempt
		if pkg.Path == full || strings.HasPrefix(pkg.Path, full+"/") {
			return false
		}
	}
	return true
}
