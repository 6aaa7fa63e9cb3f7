package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report: a position, the rule that fired, and
// a message explaining the violated invariant.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical "file:line:col: [rule] message" form the
// CLI prints and CI greps.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Analyzer is one repo-invariant rule. Run is invoked once per analyzed
// package and may consult the whole Program for cross-package facts
// (the bgp hot-path call graph).
type Analyzer struct {
	// Name is the rule id findings and //lint:allow comments use.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run reports the rule's raw findings for one package; suppression
	// is applied by the driver, not the analyzer.
	Run func(prog *Program, pkg *Package) []Finding
}

// Analyzers returns the full suite in stable order. Each rule encodes
// an invariant this repository has already paid for in bugs; see
// DESIGN.md §"Static analysis" for the history.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerMapOrder(),
		analyzerHotAtomic(),
		analyzerCtxFlow(),
		analyzerWallTime(),
	}
}

// SelectAnalyzers filters the suite by rule id: include keeps only the
// named rules (empty keeps all), exclude then drops its names. Unknown
// ids and an empty selection are errors — a typoed -rules flag must
// fail loudly, not silently lint nothing.
func SelectAnalyzers(all []*Analyzer, include, exclude []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	keep := make(map[string]bool, len(all))
	if len(include) == 0 {
		for name := range byName {
			keep[name] = true
		}
	}
	for _, name := range include {
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown rule %q (have %s)", name, strings.Join(AnalyzerNames(), ", "))
		}
		keep[name] = true
	}
	for _, name := range exclude {
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown rule %q (have %s)", name, strings.Join(AnalyzerNames(), ", "))
		}
		delete(keep, name)
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("no rules selected (have %s)", strings.Join(AnalyzerNames(), ", "))
	}
	out := make([]*Analyzer, 0, len(keep))
	for _, a := range all { // preserve registry order
		if keep[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// AnalyzerNames returns the rule ids of the full suite, sorted.
func AnalyzerNames() []string {
	as := Analyzers()
	out := make([]string, 0, len(as))
	for _, a := range as {
		out = append(out, a.Name)
	}
	sort.Strings(out)
	return out
}

// allowDirective is the suppression comment prefix. The full syntax is
//
//	//lint:allow <rule-id> <reason>
//
// placed on the finding's line or the line directly above it. The
// reason is mandatory: an unexplained suppression is itself reported
// (rule id "allow"), as is an unknown rule id.
const allowDirective = "//lint:allow"

// allowKey identifies one (file, line) suppression site.
type allowKey struct {
	file string
	line int
}

// suppressions holds every well-formed //lint:allow site of a package,
// plus findings for malformed ones.
type suppressions struct {
	allowed map[allowKey]map[string]bool
	bad     []Finding
}

// collectSuppressions scans a package's comments for allow directives.
// known is the set of valid rule ids.
func collectSuppressions(prog *Program, pkg *Package, known map[string]bool) *suppressions {
	s := &suppressions{allowed: make(map[allowKey]map[string]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, allowDirective)
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					s.bad = append(s.bad, Finding{Pos: pos, Rule: "allow",
						Message: "malformed //lint:allow: missing rule id and reason"})
				case !known[fields[0]]:
					s.bad = append(s.bad, Finding{Pos: pos, Rule: "allow",
						Message: fmt.Sprintf("//lint:allow names unknown rule %q (have %s)",
							fields[0], strings.Join(sortedKeys(known), ", "))})
				case len(fields) == 1:
					s.bad = append(s.bad, Finding{Pos: pos, Rule: "allow",
						Message: fmt.Sprintf("//lint:allow %s: missing reason (suppressions must say why)", fields[0])})
				default:
					k := allowKey{file: pos.Filename, line: pos.Line}
					if s.allowed[k] == nil {
						s.allowed[k] = make(map[string]bool)
					}
					s.allowed[k][fields[0]] = true
				}
			}
		}
	}
	return s
}

// suppressed reports whether a finding is covered by an allow directive
// on its own line or the line directly above.
func (s *suppressions) suppressed(f Finding) bool {
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		if rules := s.allowed[allowKey{file: f.Pos.Filename, line: line}]; rules[f.Rule] {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the analyzers over the selected packages, applies
// //lint:allow suppression, and returns deduplicated findings sorted by
// position then rule — a stable order for golden output and CI diffs.
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		// Directives are validated against the full registry, not the
		// selected subset, so a partial run never misreports a valid
		// suppression as unknown.
		known[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(prog, pkg, known)
		out = append(out, sup.bad...)
		for _, a := range analyzers {
			for _, f := range a.Run(prog, pkg) {
				if !sup.suppressed(f) {
					out = append(out, f)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	// Dedupe: cross-analyzer overlap (and the parallel-package worker
	// rules) can report one site twice.
	dedup := out[:0]
	for i, f := range out {
		if i > 0 && f == out[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup
}

// --- shared type-resolution helpers ----------------------------------

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr: // instantiated generic, one type arg: Pool[T](...)
		return instantiatedFunc(info, fun.X)
	case *ast.IndexListExpr: // instantiated generic, several: Map[T, R](...)
		return instantiatedFunc(info, fun.X)
	}
	return nil
}

// instantiatedFunc resolves the function expression under an explicit
// generic instantiation's index brackets.
func instantiatedFunc(info *types.Info, x ast.Expr) *types.Func {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		f, _ := info.Uses[x].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[x.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcPkgPath returns the import path of the package a function (or
// method) is declared in, or "".
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// namedOf unwraps pointers to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
