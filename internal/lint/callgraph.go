package lint

import (
	"go/ast"
	"go/types"
)

// CallGraph is the module-wide static call graph: every function and
// method declared in the analyzed module, with edges to the in-module
// functions its body statically calls. Calls through function-typed
// values, interface methods, and builtins carry no edge — the graph is
// an under-approximation, which is the right polarity for the rules
// built on it (a missing edge can only make a rule quieter, never
// noisier on code that proves its own safety).
//
// The graph is built once per Program (see Program.CallGraph) and
// serves hotatomic's Converge traversal.
type CallGraph struct {
	prog *Program
	// decls maps every in-module function object to its declaration.
	decls map[*types.Func]*ast.FuncDecl
	// pkgs maps every in-module function object to its home package.
	pkgs map[*types.Func]*Package
	// callees holds the deduplicated in-module callees of each function,
	// in source order (deterministic traversals fall out for free).
	callees map[*types.Func][]*types.Func
}

// CallGraph returns the module's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() { p.cg = buildCallGraph(p) })
	return p.cg
}

func buildCallGraph(prog *Program) *CallGraph {
	cg := &CallGraph{
		prog:    prog,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		pkgs:    make(map[*types.Func]*Package),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if f, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					cg.decls[f] = fd
					cg.pkgs[f] = pkg
				}
			}
		}
	}
	for f, fd := range cg.decls {
		info := cg.pkgs[f].Info
		seen := make(map[*types.Func]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, inModule := cg.decls[callee]; !inModule {
				return true
			}
			seen[callee] = true
			cg.callees[f] = append(cg.callees[f], callee)
			return true
		})
	}
	return cg
}

// Callees returns f's in-module static callees in source order.
func (g *CallGraph) Callees(f *types.Func) []*types.Func { return g.callees[f] }

// Method locates the method recvType.name declared in pkg, or nil.
func (g *CallGraph) Method(pkg *Package, recvType, name string) *types.Func {
	for f := range g.decls {
		if f.Name() != name || g.pkgs[f] != pkg {
			continue
		}
		recv := f.Type().(*types.Signature).Recv()
		if recv != nil && isNamedType(recv.Type(), pkg.Path, recvType) {
			return f
		}
	}
	return nil
}

// Reachable walks the call graph from root and returns every reached
// function (including root). samePkg restricts the walk to root's
// package — the hotatomic semantics, where the hot set is the Converge
// tree inside internal/bgp. stop names functions that are neither
// reported nor descended into (sanctioned flush points).
func (g *CallGraph) Reachable(root *types.Func, samePkg bool, stop map[string]bool) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	rootPkg := g.pkgs[root]
	var visit func(f *types.Func)
	visit = func(f *types.Func) {
		decl, ok := g.decls[f]
		if !ok || out[f] != nil || stop[f.Name()] {
			return
		}
		if samePkg && g.pkgs[f] != rootPkg {
			return
		}
		out[f] = decl
		for _, callee := range g.callees[f] {
			visit(callee)
		}
	}
	visit(root)
	return out
}
