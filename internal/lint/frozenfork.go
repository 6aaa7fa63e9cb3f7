package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// analyzerFrozenFork proves the COW fork discipline statically: no path
// may reach a frozen-guarded mutator (Announce, Withdraw, the what-if
// edits) or an unblessed adj-RIB-in write on a Computation after
// Freeze()/Fork(). The runtime enforces this with panics; this rule
// moves the failure from a served 500 to a CI diff.
//
// Everything is derived from source, not hardcoded:
//
//   - The frozen-disciplined type and its mutator set come from the
//     guard pattern itself: a method that reads a field named "frozen"
//     and panics is a mutator; a method that writes that field (or
//     calls such a method on its receiver) is a freezer (Freeze, Fork).
//   - Adj-RIB-in writes are blessed only inside methods that consult
//     the sharedRow copy-on-write bitmap (deliver); any other method
//     indexing into the adjIn field is a mutator too.
//   - Functions whose returned value was frozen in their own body
//     (peering.AnycastBase) mark their call results as frozen at call
//     sites, so the discipline follows values across packages.
//   - A module-wide fixpoint over the call graph lifts the mutator set
//     to parameters: a function that forwards a *Computation argument
//     into a mutating position is itself mutating in that position
//     (whatif.EvalOn, whatif.Compiled.Apply).
//
// The flow analysis is an under-approximation: a value is "frozen" at a
// use only when the freeze is provable inside the enclosing declaration
// (a freezer call on the same identifier, or assignment from a
// frozen-returning function). That polarity means no false positives on
// code that re-derives its forks explicitly — which is the pattern the
// repo's campaign code already follows.
func analyzerFrozenFork() *Analyzer {
	return &Analyzer{
		Name: "frozenfork",
		Doc:  "no mutation of a frozen bgp.Computation: paths reaching Announce/Withdraw/what-if edits or unblessed adj-in writes after Freeze/Fork must go through a Fork() child",
		Run:  runFrozenFork,
	}
}

// frozenFacts are the module-wide tables frozenfork derives once per
// Program (cached on Program.ff).
type frozenFacts struct {
	// types are the frozen-disciplined named types (bgp.Computation).
	types map[*types.Named]bool
	// sinks are the frozen-guarded mutators plus unblessed adj-in
	// writers: calling one on a frozen value panics (or corrupts shared
	// COW state).
	sinks map[*types.Func]bool
	// freezers freeze their receiver: Freeze, Fork, and anything that
	// calls one of them on its own receiver.
	freezers map[*types.Func]bool
	// frozenRet marks functions that return a value they froze
	// (peering.AnycastBase): call results are frozen at the call site.
	frozenRet map[*types.Func]bool
	// mut maps a function to its mutated parameter positions (-1 is the
	// receiver); the value is the witness mutator name for messages.
	mut map[*types.Func]map[int]string
}

func (p *Program) frozenFacts() *frozenFacts {
	p.ffOnce.Do(func() { p.ff = buildFrozenFacts(p) })
	return p.ff
}

func buildFrozenFacts(prog *Program) *frozenFacts {
	cg := prog.CallGraph()
	ff := &frozenFacts{
		types:     make(map[*types.Named]bool),
		sinks:     make(map[*types.Func]bool),
		freezers:  make(map[*types.Func]bool),
		frozenRet: make(map[*types.Func]bool),
		mut:       make(map[*types.Func]map[int]string),
	}
	funcs := cg.Funcs()

	// Pass 1: guard-pattern scan — frozen readers that panic are sinks,
	// frozen writers are freezers; both identify the disciplined type.
	for _, f := range funcs {
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		named := namedOf(recv.Type())
		if named == nil {
			continue
		}
		decl, info := cg.Decl(f), cg.PackageOf(f).Info
		reads, writes, panics := frozenFieldUsage(info, decl.Body)
		if reads && panics {
			ff.sinks[f] = true
			ff.types[named] = true
		}
		if writes {
			ff.freezers[f] = true
			ff.types[named] = true
		}
	}

	// Pass 2: unblessed adj-in writers on disciplined types. Methods
	// that consult the sharedRow COW bitmap (deliver) are the blessed
	// clone sites; everything else writing adjIn is a mutator.
	for _, f := range funcs {
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil || !ff.types[namedOf(recv.Type())] {
			continue
		}
		decl, info := cg.Decl(f), cg.PackageOf(f).Info
		if writesFieldIndex(info, decl.Body, "adjIn") && !referencesField(info, decl.Body, "sharedRow") {
			ff.sinks[f] = true
		}
	}

	// Pass 3: freezer closure — a method that calls a freezer on its own
	// receiver freezes it too (Fork calls Freeze).
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if ff.freezers[f] {
				continue
			}
			sig := f.Type().(*types.Signature)
			if sig.Recv() == nil || !ff.types[namedOf(sig.Recv().Type())] {
				continue
			}
			decl, info := cg.Decl(f), cg.PackageOf(f).Info
			recvObj := receiverObject(info, decl)
			if recvObj == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || ff.freezers[f] {
					return !ok
				}
				if ff.freezers[calleeFunc(info, call)] && receiverIdentObject(info, call) == recvObj {
					ff.freezers[f] = true
					changed = true
				}
				return true
			})
		}
	}

	// Pass 4: frozen-returning functions — some return statement returns
	// an identifier the body froze.
	for _, f := range funcs {
		if !resultsIncludeDisciplined(ff, f) {
			continue
		}
		decl, info := cg.Decl(f), cg.PackageOf(f).Info
		frozenLocals := make(map[types.Object]bool)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if ff.freezers[calleeFunc(info, call)] {
				if obj := receiverIdentObject(info, call); obj != nil {
					frozenLocals[obj] = true
				}
			}
			return true
		})
		if len(frozenLocals) == 0 {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && frozenLocals[info.Uses[id]] {
					ff.frozenRet[f] = true
				}
			}
			return true
		})
	}

	// Pass 5: mutated-parameter fixpoint over the call graph. Sinks
	// mutate their receiver; a function forwarding a disciplined
	// parameter into a mutated position inherits the mutation.
	for s := range ff.sinks {
		ff.mut[s] = map[int]string{-1: s.Name()}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			params := disciplinedParams(ff, f)
			if len(params) == 0 {
				continue
			}
			decl, info := cg.Decl(f), cg.PackageOf(f).Info
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				gm := ff.mut[calleeFunc(info, call)]
				if gm == nil {
					return true
				}
				record := func(obj types.Object, witness string) {
					pos, isParam := params[obj]
					if !isParam {
						return
					}
					if ff.mut[f] == nil {
						ff.mut[f] = make(map[int]string)
					}
					if _, done := ff.mut[f][pos]; !done {
						ff.mut[f][pos] = witness
						changed = true
					}
				}
				if w, ok := gm[-1]; ok {
					if obj := receiverIdentObject(info, call); obj != nil {
						record(obj, w)
					}
				}
				for i, arg := range call.Args {
					if w, ok := gm[i]; ok {
						if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent {
							record(info.Uses[id], w)
						}
					}
				}
				return true
			})
		}
	}
	return ff
}

// frozenFieldUsage reports whether body reads/writes a struct field
// named "frozen" and whether it panics.
func frozenFieldUsage(info *types.Info, body *ast.BlockStmt) (reads, writes, panics bool) {
	isFrozenSel := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		return ok && v.IsField() && v.Name() == "frozen"
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				panics = true
			}
			// atomic.Bool form: c.frozen.Store(...) writes, .Load() reads.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isFrozenSel(sel.X) {
				if sel.Sel.Name == "Store" {
					writes = true
				} else {
					reads = true
				}
				return false
			}
		case *ast.AssignStmt: // plain bool form: c.frozen = true
			for _, lhs := range n.Lhs {
				if isFrozenSel(lhs) {
					writes = true
				}
			}
		case *ast.SelectorExpr:
			if isFrozenSel(n) {
				reads = true
			}
		}
		return true
	})
	return reads, writes, panics
}

// writesFieldIndex reports whether body assigns through an index of a
// struct field with the given name (c.adjIn[i] = ..., c.adjIn[i][s] = ...).
func writesFieldIndex(info *types.Info, body *ast.BlockStmt, field string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			for e := ast.Unparen(lhs); ; {
				idx, ok := e.(*ast.IndexExpr)
				if !ok {
					break
				}
				if sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr); ok {
					if v, isVar := info.Uses[sel.Sel].(*types.Var); isVar && v.IsField() && v.Name() == field {
						found = true
					}
					break
				}
				e = ast.Unparen(idx.X)
			}
		}
		return true
	})
	return found
}

// referencesField reports whether body mentions a struct field with the
// given name.
func referencesField(info *types.Info, body *ast.BlockStmt, field string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if v, isVar := info.Uses[sel.Sel].(*types.Var); isVar && v.IsField() && v.Name() == field {
				found = true
			}
		}
		return !found
	})
	return found
}

// receiverObject returns the object of a method declaration's named
// receiver, or nil for anonymous receivers.
func receiverObject(info *types.Info, decl *ast.FuncDecl) types.Object {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[decl.Recv.List[0].Names[0]]
}

// resultsIncludeDisciplined reports whether f returns a pointer to a
// frozen-disciplined type.
func resultsIncludeDisciplined(ff *frozenFacts, f *types.Func) bool {
	res := f.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if ff.types[namedOf(res.At(i).Type())] {
			return true
		}
	}
	return false
}

// disciplinedParams maps f's receiver/parameter objects of disciplined
// pointer type to their position (-1 for the receiver).
func disciplinedParams(ff *frozenFacts, f *types.Func) map[types.Object]int {
	out := make(map[types.Object]int)
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && ff.types[namedOf(recv.Type())] {
		out[recv] = -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); ff.types[namedOf(p.Type())] {
			out[p] = i
		}
	}
	return out
}

// --- per-package flow analysis ----------------------------------------

// frozenEvent is one freeze/clear transition of a local identifier.
type frozenEvent struct {
	pos    token.Pos
	frozen bool
	line   int // origin line, for messages
}

func runFrozenFork(prog *Program, pkg *Package) []Finding {
	ff := prog.frozenFacts()
	if len(ff.sinks) == 0 {
		return nil
	}
	var out []Finding
	for _, decl := range enclosingFuncDecls(pkg) {
		out = append(out, frozenForkDecl(prog, pkg, ff, decl)...)
	}
	return out
}

func frozenForkDecl(prog *Program, pkg *Package, ff *frozenFacts, decl *ast.FuncDecl) []Finding {
	info := pkg.Info
	events := make(map[types.Object][]frozenEvent)
	add := func(obj types.Object, pos token.Pos, frozen bool) {
		if obj == nil || !ff.types[namedOf(obj.Type())] {
			return
		}
		events[obj] = append(events[obj], frozenEvent{pos: pos, frozen: frozen, line: prog.Fset.Position(pos).Line})
	}
	// Event collection: freezer calls freeze their receiver identifier;
	// assignment from a frozen-returning call freezes the target; any
	// other assignment clears it (fresh value, provability lost).
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if ff.freezers[calleeFunc(info, n)] {
				add(receiverIdentObject(info, n), n.Pos(), true)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				call, isCall := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
				add(obj, n.Pos(), isCall && ff.frozenRet[calleeFunc(info, call)])
			}
		}
		return true
	})
	for _, evs := range events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	}
	frozenAt := func(obj types.Object, pos token.Pos) (bool, int) {
		frozen, line := false, 0
		for _, e := range events[obj] {
			if e.pos >= pos {
				break
			}
			frozen, line = e.frozen, e.line
		}
		return frozen, line
	}

	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:     prog.Fset.Position(pos),
			Rule:    "frozenfork",
			Message: fmt.Sprintf(format, args...),
		})
	}
	frozenRetCall := func(e ast.Expr) *types.Func {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if g := calleeFunc(info, call); g != nil && ff.frozenRet[g] {
				return g
			}
		}
		return nil
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		g := calleeFunc(info, call)
		gm := ff.mut[g]
		if gm == nil {
			return true
		}
		if w, mutRecv := gm[-1]; mutRecv {
			if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
				if id, isIdent := ast.Unparen(sel.X).(*ast.Ident); isIdent {
					obj := info.Uses[id]
					if frozen, line := frozenAt(obj, call.Pos()); frozen {
						report(call.Pos(), "%s on %q, frozen since line %d: %s panics on a frozen Computation — Fork() a child and mutate that",
							g.Name(), id.Name, line, w)
					}
				} else if rf := frozenRetCall(sel.X); rf != nil {
					report(call.Pos(), "%s on the frozen result of %s: %s panics on a frozen Computation — Fork() it first",
						g.Name(), rf.Name(), w)
				}
			}
		}
		for i, arg := range call.Args {
			w, mutArg := gm[i]
			if !mutArg {
				continue
			}
			if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent {
				if frozen, line := frozenAt(info.Uses[id], call.Pos()); frozen {
					report(arg.Pos(), "%s passes %q, frozen since line %d, into a position that reaches mutator %s — pass a Fork() instead",
						g.Name(), id.Name, line, w)
				}
			} else if rf := frozenRetCall(arg); rf != nil {
				report(arg.Pos(), "%s passes the frozen result of %s into a position that reaches mutator %s — Fork() it first",
					g.Name(), rf.Name(), w)
			}
		}
		return true
	})
	return out
}

// FrozenMutatorNames returns the derived frozen-guarded mutator set
// (sinks) of a loaded program, sorted — exported for tests proving the
// set tracks source instead of a hardcoded list.
func FrozenMutatorNames(prog *Program) []string {
	ff := prog.frozenFacts()
	out := make([]string, 0, len(ff.sinks))
	for f := range ff.sinks {
		out = append(out, f.Name())
	}
	sort.Strings(out)
	return out
}
