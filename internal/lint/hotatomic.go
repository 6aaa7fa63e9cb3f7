package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// analyzerHotAtomic flags per-event instrumentation on the two hot
// paths PR 2's batching mandate covers:
//
//  1. The bgp.Converge event loop. Every function reachable from
//     Computation.Converge inside internal/bgp runs once per routing
//     event (millions per full-scale build); obs counter bumps or
//     sync/atomic operations there serialize the convergence on cache
//     lines. Counters must accumulate in plain Computation fields and
//     flush once per Converge via flushObs — the one sanctioned flush
//     point, which this rule excludes from the traversal.
//
//  2. parallel worker bodies. Function literals passed to
//     parallel.ForEach/Map/MapStage (and the worker closures inside
//     the parallel package itself) run once per item across all
//     workers; per-item atomics or obs calls contend across the pool.
//     The two deliberate per-item atomics the package documents (the
//     work-stealing index, the stage busy-clock) carry //lint:allow
//     annotations.
//
// The hot set is derived from the source call graph, not hardcoded, so
// new helpers on the Converge path are covered automatically.
func analyzerHotAtomic() *Analyzer {
	return &Analyzer{
		Name: "hotatomic",
		Run:  runHotAtomic,
	}
}

func runHotAtomic(prog *Program, pkg *Package) []Finding {
	var out []Finding
	out = append(out, hotAtomicConverge(prog, pkg)...)
	out = append(out, hotAtomicWorkers(prog, pkg)...)
	return out
}

// --- part 1: the bgp.Converge call tree -------------------------------

func hotAtomicConverge(prog *Program, pkg *Package) []Finding {
	if pkg.Path != prog.ModulePath+"/internal/bgp" {
		return nil
	}
	cg := prog.CallGraph()
	root := cg.Method(pkg, "Computation", "Converge")
	if root == nil {
		return nil
	}
	// The hot set is the same-package Converge call tree; flushObs is the
	// one sanctioned flush point and is excluded from the traversal.
	hot := cg.Reachable(root, true, map[string]bool{"flushObs": true})
	// Walk the hot set in source order so raw findings are deterministic
	// before the driver's final sort.
	ordered := make([]*types.Func, 0, len(hot))
	for fn := range hot {
		ordered = append(ordered, fn)
	}
	sort.Slice(ordered, func(i, j int) bool { return hot[ordered[i]].Pos() < hot[ordered[j]].Pos() })
	var out []Finding
	for _, fn := range ordered {
		decl, fnName := hot[fn], fn.Name()
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if desc := instrumentationCall(prog, pkg.Info, call); desc != "" {
				out = append(out, Finding{
					Pos:  prog.Fset.Position(call.Pos()),
					Rule: "hotatomic",
					Message: fmt.Sprintf("per-event %s call in %s, on the bgp.Converge hot path "+
						"(accumulate in Computation fields and flush once per Converge in flushObs)", desc, fnName),
				})
			}
			return true
		})
	}
	return out
}

// --- part 2: parallel worker bodies -----------------------------------

// parallelEntryPoints are the fan-out functions whose fn arguments run
// once per item.
var parallelEntryPoints = map[string]bool{
	"ForEach": true, "Map": true, "MapStage": true,
}

func hotAtomicWorkers(prog *Program, pkg *Package) []Finding {
	parallelPath := prog.ModulePath + "/internal/parallel"
	var out []Finding
	flagLit := func(lit *ast.FuncLit, where string) {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if desc := instrumentationCall(prog, pkg.Info, call); desc != "" {
				out = append(out, Finding{
					Pos:  prog.Fset.Position(call.Pos()),
					Rule: "hotatomic",
					Message: fmt.Sprintf("per-item %s call in a %s worker body "+
						"(workers run once per item; batch after the merge barrier instead)", desc, where),
				})
			}
			return true
		})
	}
	for _, file := range pkg.Files {
		// Call sites anywhere in the module: function literals handed to
		// parallel.ForEach/Map/MapStage.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pkg.Info, call)
			if f == nil || funcPkgPath(f) != parallelPath || !parallelEntryPoints[f.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					flagLit(lit, "parallel."+f.Name())
				}
			}
			return true
		})
		// Inside the parallel package itself: the worker goroutine and
		// wrapper closures within the fan-out implementations.
		if pkg.Path == parallelPath {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !parallelEntryPoints[fd.Name.Name] {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						flagLit(lit, fd.Name.Name)
						return false // flagLit descends into nested literals
					}
					return true
				})
			}
		}
	}
	return out
}

// instrumentationCall classifies a call as hot-path instrumentation:
// anything from internal/obs (counters, gauges, timers, stages) or
// sync/atomic (package functions and atomic-type methods). Returns a
// short description or "".
func instrumentationCall(prog *Program, info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	switch funcPkgPath(f) {
	case prog.ModulePath + "/internal/obs":
		return "obs." + f.Name()
	case "sync/atomic":
		return "sync/atomic " + f.Name()
	}
	return ""
}
