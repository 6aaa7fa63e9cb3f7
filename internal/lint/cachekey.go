package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerCacheKey proves the scenario-namespacing of response-cache
// keys structurally — the PR 7 bug class (one scenario's cached body
// served for another) checked at every key-construction site instead of
// by a single regression test.
//
// The shapes are derived from source:
//
//   - The cache type is any named struct in internal/service with a
//     method named "do" taking a string key (the single entry point the
//     coalescing cache exposes).
//   - The tenant type is any struct in the package holding both a cache
//     field and a string field named "id" — the per-scenario server.
//     Its id field is the namespace every key must carry.
//
// A do call's key argument must provably mention a tenant id: directly
// (srv.id + "|" + key), through local variables, fmt.Sprint*/
// strings.Join, or an in-module helper all of whose returns carry the
// mention (see stringFlow). Calls inside the cache's own methods are
// exempt — the implementation stores what it is handed.
func analyzerCacheKey() *Analyzer {
	return &Analyzer{
		Name: "cachekey",
		Doc:  "response-cache keys must provably include the scenario id (the fleet shares one cache across tenants)",
		Run:  runCacheKey,
	}
}

func runCacheKey(prog *Program, pkg *Package) []Finding {
	if !strings.HasPrefix(pkg.Path, prog.ModulePath+"/internal/service") {
		return nil
	}
	caches, keyIdx := cacheTypes(pkg)
	if len(caches) == 0 {
		return nil
	}
	idFields := tenantIDFields(pkg, caches)
	if len(idFields) == 0 {
		return nil
	}
	cg := prog.CallGraph()
	var out []Finding
	for _, decl := range enclosingFuncDecls(pkg) {
		// The cache implementation itself stores what callers hand it.
		if decl.Recv != nil && len(decl.Recv.List) > 0 {
			if named := namedOf(pkg.Info.TypeOf(decl.Recv.List[0].Type)); named != nil && caches[named] {
				continue
			}
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pkg.Info, call)
			if f == nil || f.Name() != "do" {
				return true
			}
			recv := f.Type().(*types.Signature).Recv()
			if recv == nil || !caches[namedOf(recv.Type())] {
				return true
			}
			idx := keyIdx[namedOf(recv.Type())]
			if idx >= len(call.Args) {
				return true
			}
			key := call.Args[idx]
			proven := false
			for _, id := range idFields {
				// Fresh flow state per proof: visited sets are
				// per-question, not per-package.
				if newStringFlow(cg).mentions(pkg, decl.Body, key, id) {
					proven = true
					break
				}
			}
			if !proven {
				out = append(out, Finding{
					Pos:  prog.Fset.Position(key.Pos()),
					Rule: "cachekey",
					Message: "cache key does not provably include the scenario id (prefix it with " +
						"the tenant's id field: one shared cache serves every tenant, and an " +
						"unnamespaced key leaks one scenario's bytes into another's responses)",
				})
			}
			return true
		})
	}
	return out
}

// cacheTypes finds the package's cache-like named structs (a method
// named "do" with a string parameter) and the index of that string key
// parameter.
func cacheTypes(pkg *Package) (map[*types.Named]bool, map[*types.Named]int) {
	caches := make(map[*types.Named]bool)
	keyIdx := make(map[*types.Named]int)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() != "do" {
				continue
			}
			params := m.Type().(*types.Signature).Params()
			for j := 0; j < params.Len(); j++ {
				if basic, ok := params.At(j).Type().(*types.Basic); ok && basic.Kind() == types.String {
					caches[named] = true
					keyIdx[named] = j
					break
				}
			}
		}
	}
	return caches, keyIdx
}

// tenantIDFields collects the string "id" fields of structs that also
// hold a cache — the scenario-namespace sources.
func tenantIDFields(pkg *Package, caches map[*types.Named]bool) []*types.Var {
	var out []*types.Var
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var id *types.Var
		hasCache := false
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if caches[namedOf(f.Type())] {
				hasCache = true
			}
			if f.Name() == "id" {
				if basic, ok := f.Type().(*types.Basic); ok && basic.Kind() == types.String {
					id = f
				}
			}
		}
		if hasCache && id != nil {
			out = append(out, id)
		}
	}
	return out
}
