package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerGoroLeak guards the service layer's shutdown contract: a
// goroutine started in internal/service (store/fleet paths) must
// be stoppable — otherwise a drained tenant or a shut-down server
// leaves workers running against evicted state. A `go` statement passes
// when the spawned body proves one of:
//
//   - it consults a context.Context (cancelable: references any
//     ctx-typed value, which covers ctx.Done() selects and ctx.Err()
//     polls);
//   - it receives from a channel (a done/stop channel close reaches
//     it);
//   - it calls sync.WaitGroup.Done (it is joined: drain/Close waits).
//
// Named functions and methods are resolved through the call graph and
// judged by their bodies; a spawn the checker cannot resolve (function
// value, interface method) is flagged — shutdown-safety must be
// locally evident in this package.
func analyzerGoroLeak() *Analyzer {
	return &Analyzer{
		Name: "goroleak",
		Doc:  "service goroutines must be cancelable (ctx/done channel) or joined (WaitGroup) before shutdown/drain",
		Run:  runGoroLeak,
	}
}

func runGoroLeak(prog *Program, pkg *Package) []Finding {
	if !strings.HasPrefix(pkg.Path, prog.ModulePath+"/internal/service") {
		return nil
	}
	cg := prog.CallGraph()
	var out []Finding
	for _, decl := range enclosingFuncDecls(pkg) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			stmt, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, info, what := spawnedBody(cg, pkg, stmt.Call)
			if body != nil && goroutineIsStoppable(info, body) {
				return true
			}
			reason := "neither consults a ctx/done channel nor calls WaitGroup.Done"
			if body == nil {
				reason = "cannot be resolved to a declared body"
			}
			out = append(out, Finding{
				Pos:  prog.Fset.Position(stmt.Pos()),
				Rule: "goroleak",
				Message: fmt.Sprintf("goroutine %s %s; it would outlive shutdown/drain — select on a "+
					"stop channel or join it with a WaitGroup the drain path waits on", what, reason),
			})
			return true
		})
	}
	return out
}

// spawnedBody resolves the body a go statement runs: a function
// literal's own body, or the declaration of a statically resolved
// function/method. what describes the spawn for the message.
func spawnedBody(cg *CallGraph, pkg *Package, call *ast.CallExpr) (body *ast.BlockStmt, info *types.Info, what string) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, pkg.Info, "closure"
	}
	f := calleeFunc(pkg.Info, call)
	if f == nil {
		return nil, nil, "target"
	}
	decl := cg.Decl(f)
	if decl == nil {
		return nil, nil, f.Name()
	}
	return decl.Body, cg.PackageOf(f).Info, f.Name()
}

// goroutineIsStoppable applies the three proofs described on the
// analyzer.
func goroutineIsStoppable(info *types.Info, body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && isNamedType(obj.Type(), "context", "Context") {
				ok = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ok = true
			}
		case *ast.CallExpr:
			if f := calleeFunc(info, n); f != nil && f.Name() == "Done" {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil &&
					isNamedType(recv.Type(), "sync", "WaitGroup") {
					ok = true
				}
			}
		}
		return !ok
	})
	return ok
}
