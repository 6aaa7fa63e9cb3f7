package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// analyzerCtxFlow flags functions in internal/experiments and
// internal/service that accept a context.Context but never consult it
// — no ctx.Err()/ctx.Done() check and no forwarding to a callee. Those
// are the packages where cancellation is load-bearing: routelabd's
// request deadline (504-on-timeout) and graceful drain only work if
// every experiment driver and service handler with an inner stage
// boundary observes its ctx there. A ctx parameter that is silently
// dropped compiles fine, passes goldens (Background never cancels), and
// breaks only under production timeout pressure.
//
// Both declared functions and function literals (the compute closures
// handed to the cache/gate) are checked. A parameter named _ is the
// explicit opt-out, for a function with no point between its stages
// where work could stop: its caller has already checked the ctx.
func analyzerCtxFlow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(prog *Program, pkg *Package) []Finding {
	switch pkg.Path {
	case prog.ModulePath + "/internal/experiments", prog.ModulePath + "/internal/service":
	default:
		return nil
	}
	var out []Finding
	check := func(name string, ftype *ast.FuncType, body *ast.BlockStmt, pos ast.Node) {
		if body == nil {
			return
		}
		for _, param := range ctxParams(pkg.Info, ftype) {
			if usesObject(pkg.Info, body, param) {
				continue
			}
			out = append(out, Finding{
				Pos:  prog.Fset.Position(pos.Pos()),
				Rule: "ctxflow",
				Message: fmt.Sprintf("%s accepts %s but never consults it; check ctx.Err()/Done() or forward it "+
					"before blocking work (cancellation and request deadlines silently stop here)", name, param.Name()),
			})
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				check(n.Name.Name, n.Type, n.Body, n)
			case *ast.FuncLit:
				check("function literal", n.Type, n.Body, n)
			}
			return true
		})
	}
	return out
}

// ctxParams returns the declared (named, non-blank) context.Context
// parameters of a function type.
func ctxParams(info *types.Info, ftype *ast.FuncType) []*types.Var {
	if ftype.Params == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			v, ok := info.Defs[name].(*types.Var)
			if ok && isNamedType(v.Type(), "context", "Context") {
				out = append(out, v)
			}
		}
	}
	return out
}

// usesObject reports whether any identifier in body resolves to obj.
func usesObject(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
