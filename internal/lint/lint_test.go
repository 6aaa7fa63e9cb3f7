package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureProg loads the fixture module under testdata/src once per test
// binary; loading type-checks the stdlib from source, so it is shared.
var fixtureProg = sync.OnceValues(func() (*Program, error) {
	return Load(filepath.Join("testdata", "src"))
})

func loadFixture(t *testing.T) *Program {
	t.Helper()
	prog, err := fixtureProg()
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	return prog
}

// wantMarker is the fixture expectation syntax: a trailing
// "//lint:want <rule>" comment on the exact line a finding must be
// reported at.
const wantMarker = "//lint:want"

type expectation struct {
	file string
	line int
	rule string
}

func (e expectation) String() string { return fmt.Sprintf("%s:%d: [%s]", e.file, e.line, e.rule) }

// collectExpectations scans a package's comments for want markers.
func collectExpectations(prog *Program, pkg *Package) []expectation {
	var out []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				rest, ok := strings.CutPrefix(text, wantMarker)
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) != 1 {
					panic(fmt.Sprintf("%s:%d: malformed %s marker", pos.Filename, pos.Line, wantMarker))
				}
				out = append(out, expectation{file: pos.Filename, line: pos.Line, rule: fields[0]})
			}
		}
	}
	return out
}

// TestFixtures runs the full suite over the fixture module and requires
// the findings to match the //lint:want markers exactly: every positive
// fires, every negative stays silent, and every //lint:allow suppresses
// its finding. The fix/allow package is exercised separately by
// TestAllowDirectiveValidation.
func TestFixtures(t *testing.T) {
	prog := loadFixture(t)
	var pkgs []*Package
	var want []expectation
	for _, pkg := range prog.Packages {
		if pkg.Path == "routelab/fix/allow" {
			continue
		}
		pkgs = append(pkgs, pkg)
		want = append(want, collectExpectations(prog, pkg)...)
	}
	got := Run(prog, pkgs, Analyzers())

	wantSet := make(map[expectation]bool, len(want))
	for _, e := range want {
		wantSet[e] = true
	}
	gotSet := make(map[expectation]bool, len(got))
	for _, f := range got {
		gotSet[expectation{file: f.Pos.Filename, line: f.Pos.Line, rule: f.Rule}] = true
	}
	for _, e := range want {
		if !gotSet[e] {
			t.Errorf("expected finding missing: %s", e)
		}
	}
	for _, f := range got {
		if !wantSet[expectation{file: f.Pos.Filename, line: f.Pos.Line, rule: f.Rule}] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestEveryAnalyzerHasFixtureCoverage guards against fixture bit-rot:
// each of the four rules must have at least one positive marker and at
// least one suppression in the fixture tree.
func TestEveryAnalyzerHasFixtureCoverage(t *testing.T) {
	prog := loadFixture(t)
	positives := make(map[string]int)
	allows := make(map[string]int)
	for _, pkg := range prog.Packages {
		for _, e := range collectExpectations(prog, pkg) {
			positives[e.rule]++
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), allowDirective); ok {
						if fields := strings.Fields(rest); len(fields) >= 2 {
							allows[fields[0]]++
						}
					}
				}
			}
		}
	}
	for _, a := range Analyzers() {
		if positives[a.Name] == 0 {
			t.Errorf("analyzer %s has no positive fixture case", a.Name)
		}
		if allows[a.Name] == 0 {
			t.Errorf("analyzer %s has no suppressed fixture case", a.Name)
		}
	}
}

// TestAllowDirectiveValidation checks that malformed //lint:allow
// comments (bare, unknown rule, missing reason) are themselves reported
// under rule id "allow".
func TestAllowDirectiveValidation(t *testing.T) {
	prog := loadFixture(t)
	pkg := prog.Package("routelab/fix/allow")
	if pkg == nil {
		t.Fatal("fixture package routelab/fix/allow not loaded")
	}
	findings := Run(prog, []*Package{pkg}, Analyzers())
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3 (bare, unknown rule, missing reason):\n%s",
			len(findings), findingLines(findings))
	}
	wantFrags := []string{"missing rule id", "unknown rule", "missing reason"}
	for i, f := range findings {
		if f.Rule != "allow" {
			t.Errorf("finding %d: rule %q, want \"allow\"", i, f.Rule)
		}
		if !strings.Contains(f.Message, wantFrags[i]) {
			t.Errorf("finding %d: message %q does not mention %q", i, f.Message, wantFrags[i])
		}
	}
}

// TestSelectAnalyzers covers the -rules/-exclude-rules surface: include
// keeps registry order, exclude subtracts, unknown ids and an empty
// selection fail.
func TestSelectAnalyzers(t *testing.T) {
	all := Analyzers()
	sub, err := SelectAnalyzers(all, []string{"walltime", "ctxflow"}, nil)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(sub) != 2 || sub[0].Name != "ctxflow" || sub[1].Name != "walltime" {
		t.Fatalf("include selection = %v, want [ctxflow walltime] in registry order", analyzerNamesOf(sub))
	}
	sub, err = SelectAnalyzers(all, nil, []string{"hotatomic"})
	if err != nil {
		t.Fatalf("exclude: %v", err)
	}
	if len(sub) != len(all)-1 {
		t.Fatalf("exclude left %d rules, want %d", len(sub), len(all)-1)
	}
	for _, a := range sub {
		if a.Name == "hotatomic" {
			t.Fatal("excluded rule still selected")
		}
	}
	if _, err := SelectAnalyzers(all, []string{"nosuchrule"}, nil); err == nil {
		t.Fatal("unknown include rule did not error")
	}
	if _, err := SelectAnalyzers(all, nil, []string{"nosuchrule"}); err == nil {
		t.Fatal("unknown exclude rule did not error")
	}
	if _, err := SelectAnalyzers(all, []string{"walltime"}, []string{"walltime"}); err == nil {
		t.Fatal("empty selection did not error")
	}
}

func analyzerNamesOf(as []*Analyzer) []string {
	out := make([]string, 0, len(as))
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

// TestLoaderGenericsAndAliases pins the loader on the multi-file
// generics/alias fixture package: both files load, the alias and
// generic declarations resolve, and calleeFunc resolves the explicit
// two-type-argument instantiation (IndexListExpr) so interprocedural
// rules see through generic call edges.
func TestLoaderGenericsAndAliases(t *testing.T) {
	prog := loadFixture(t)
	pkg := prog.Package("routelab/fix/loader")
	if pkg == nil {
		t.Fatal("fixture package routelab/fix/loader not loaded")
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files, want 2 (a.go, b.go)", len(pkg.Files))
	}
	scope := pkg.Types.Scope()
	row, ok := scope.Lookup("Row").(*types.TypeName)
	if !ok || !row.IsAlias() {
		t.Fatalf("Row = %v, want a type alias", scope.Lookup("Row"))
	}
	intPool, ok := scope.Lookup("IntPool").(*types.TypeName)
	if !ok || !intPool.IsAlias() {
		t.Fatalf("IntPool = %v, want an alias of a generic instantiation", scope.Lookup("IntPool"))
	}
	pool, ok := scope.Lookup("Pool").(*types.TypeName)
	if !ok {
		t.Fatal("Pool not found")
	}
	named, ok := pool.Type().(*types.Named)
	if !ok || named.TypeParams().Len() != 1 {
		t.Fatalf("Pool = %v, want a generic named type with one type parameter", pool.Type())
	}
	// The explicit instantiation Map[int, int](...) must resolve to the
	// generic Map both via calleeFunc and in the call graph.
	cg := prog.CallGraph()
	squares, ok := scope.Lookup("Squares").(*types.Func)
	if !ok {
		t.Fatal("Squares not found")
	}
	found := false
	for _, callee := range cg.Callees(squares) {
		if callee.Name() == "Map" {
			found = true
		}
	}
	if !found {
		t.Fatalf("call graph misses Squares -> Map (IndexListExpr instantiation); callees = %v", cg.Callees(squares))
	}
	resolved := false
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, isIdx := call.Fun.(*ast.IndexListExpr); !isIdx {
				return true
			}
			if f := calleeFunc(pkg.Info, call); f != nil && f.Name() == "Map" {
				resolved = true
			}
			return true
		})
	}
	if !resolved {
		t.Fatal("calleeFunc did not resolve the IndexListExpr instantiation of Map")
	}
}

// TestRunIsDeterministic re-runs the suite and requires byte-identical
// finding lists — the tool that proves determinism must itself be
// deterministic.
func TestRunIsDeterministic(t *testing.T) {
	prog := loadFixture(t)
	render := func() string {
		var b strings.Builder
		for _, f := range Run(prog, prog.Packages, Analyzers()) {
			fmt.Fprintln(&b, f)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if again := render(); again != first {
			t.Fatalf("run %d differs:\n--- first\n%s--- again\n%s", i+2, first, again)
		}
	}
}

// TestRepoIsClean is the self-check the acceptance criteria pin: the
// suite over this repository itself reports nothing, so any regression
// against the encoded invariants fails tier-1 here before CI. It also
// holds two invariants of internal/service simpler than a rule, with no
// exception and no //lint:allow. The package starts no goroutine —
// request goroutines are net/http's, and nothing the service runs
// outlives the request or the build that started it. And handlers
// answer only through *reply: no non-test file but reply.go names
// http.ResponseWriter, a value or method of it, or http.Error, so every
// error response carries the typed envelope.
func TestRepoIsClean(t *testing.T) {
	prog, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("load repository module: %v", err)
	}
	if prog.ModulePath != "routelab" {
		t.Fatalf("loaded module %q, want routelab", prog.ModulePath)
	}
	if len(prog.Packages) < 30 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the tree", len(prog.Packages))
	}
	findings := Run(prog, prog.Packages, Analyzers())
	if len(findings) > 0 {
		t.Errorf("routelint is not clean on the repository (%d findings):\n%s",
			len(findings), findingLines(findings))
	}
	service := prog.Package("routelab/internal/service")
	if service == nil {
		t.Fatal("routelab/internal/service not loaded")
	}
	for _, f := range service.Files {
		isReply := filepath.Base(prog.Fset.Position(f.Pos()).Filename) == "reply.go"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: internal/service starts a goroutine; it must start none", prog.Fset.Position(n.Pos()))
			case *ast.Ident:
				if !isReply && writesResponse(service.Info.ObjectOf(n)) {
					t.Errorf("%s: %s outside reply.go; handlers answer through *reply", prog.Fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
}

// writesResponse reports whether obj is net/http's ResponseWriter, a
// value of that type, one of its methods, or http.Error.
func writesResponse(obj types.Object) bool {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return isNamedType(recv.Type(), "net/http", "ResponseWriter")
		}
		return funcPkgPath(fn) == "net/http" && fn.Name() == "Error"
	}
	return obj != nil && isNamedType(obj.Type(), "net/http", "ResponseWriter")
}

// TestAnalyzerNamesStable pins the public rule-id surface: DESIGN.md,
// CI, and //lint:allow comments all reference these ids.
func TestAnalyzerNamesStable(t *testing.T) {
	want := []string{"ctxflow", "hotatomic", "maporder", "walltime"}
	got := AnalyzerNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("analyzer names = %v, want %v", got, want)
	}
	for _, a := range Analyzers() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
	}
}

// TestFixtureASTsHaveComments guards the loader's ParseComments mode:
// suppression and markers both depend on comments surviving the parse.
func TestFixtureASTsHaveComments(t *testing.T) {
	prog := loadFixture(t)
	total := 0
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			total += len(f.Comments)
		}
	}
	if total == 0 {
		t.Fatal("no comments in fixture ASTs; loader must parse with parser.ParseComments")
	}
	// And positions must resolve to real files.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			if name := prog.Fset.Position(f.Pos()).Filename; !strings.HasSuffix(name, ".go") {
				t.Fatalf("file position %q does not resolve to a .go file", name)
			}
			var count int
			ast.Inspect(f, func(ast.Node) bool { count++; return true })
			if count == 0 {
				t.Fatal("empty AST in fixture package")
			}
		}
	}
}

func findingLines(fs []Finding) string {
	lines := make([]string, 0, len(fs))
	for _, f := range fs {
		lines = append(lines, "  "+f.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
