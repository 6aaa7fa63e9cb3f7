// Package lint is routelab's repository-invariant static-analysis
// suite: a dependency-free (stdlib go/ast, go/parser, go/types,
// go/importer) driver plus analyzers that prove the determinism,
// cancellation, and hot-path rules this repo's reproducibility claims
// rest on. It runs as a test: TestRepoIsClean fails `go test
// ./internal/lint` on any finding in the module. DESIGN.md §"Static
// analysis" documents every rule and its motivating bug.
//
// The loader below parses every package in the module from source and
// type-checks it with go/types. Intra-module imports resolve against
// the loader's own package set; standard-library imports resolve
// through go/importer's source importer, so the module's go.mod stays
// require-free and the suite runs on a bare toolchain.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the analyzed module.
type Package struct {
	// Path is the package's import path (modulePath/relative-dir).
	Path string
	// Dir is the absolute directory the package was parsed from.
	Dir string
	// Files are the parsed source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's resolution results for Files.
	Info *types.Info
}

// Program is a fully loaded module: every package parsed and
// type-checked against one shared FileSet. Analyzers receive the whole
// Program so a cross-package rule (the bgp hot path) can be derived
// from source instead of hardcoded.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string
	Packages   []*Package // sorted by Path
	byPath     map[string]*Package

	// cgOnce/cg lazily cache the module-wide call graph hotatomic walks,
	// so it is built once per Run instead of once per package.
	cgOnce sync.Once
	cg     *CallGraph
}

// Package returns the loaded package with the given import path, or nil.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// Load parses and type-checks every package of the module containing
// dir. It fails on parse errors, type errors, or import cycles — the
// analyzers' results are only trustworthy over a fully checked tree.
func Load(dir string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		prog: &Program{
			Fset:       token.NewFileSet(),
			ModulePath: modPath,
			Root:       root,
			byPath:     make(map[string]*Package),
		},
		checked: make(map[string]*loadEntry),
	}
	l.std = importer.ForCompiler(l.prog.Fset, "source", nil)
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if _, err := l.check(l.importPath(d), d); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.prog.byPath))
	for path := range l.prog.byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		l.prog.Packages = append(l.prog.Packages, l.prog.byPath[path])
	}
	return l.prog, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if p, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// packageDirs collects every directory under root holding at least one
// non-test .go file, skipping testdata, vendor, and hidden/underscore
// directories (the same pruning the go tool applies to ./... walks).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

type loadEntry struct {
	pkg *Package
	err error
	// inProgress marks a package currently being checked, for import
	// cycle detection.
	inProgress bool
}

type loader struct {
	prog    *Program
	std     types.Importer
	checked map[string]*loadEntry
}

// importPath maps an absolute package directory to its import path.
func (l *loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.prog.Root, dir)
	if err != nil || rel == "." {
		return l.prog.ModulePath
	}
	return l.prog.ModulePath + "/" + filepath.ToSlash(rel)
}

// dirOf maps a module-internal import path back to its directory.
func (l *loader) dirOf(path string) string {
	if path == l.prog.ModulePath {
		return l.prog.Root
	}
	rel := strings.TrimPrefix(path, l.prog.ModulePath+"/")
	return filepath.Join(l.prog.Root, filepath.FromSlash(rel))
}

// Import satisfies types.Importer for the module's own packages and
// defers everything else to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.prog.ModulePath || strings.HasPrefix(path, l.prog.ModulePath+"/") {
		pkg, err := l.check(path, l.dirOf(path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// check parses and type-checks one module package (memoized).
func (l *loader) check(path, dir string) (*Package, error) {
	if e, ok := l.checked[path]; ok {
		if e.inProgress {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{inProgress: true}
	l.checked[path] = e

	files, err := l.parseDir(dir)
	if err == nil && len(files) == 0 {
		err = fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var pkg *Package
	if err == nil {
		pkg, err = l.typeCheck(path, dir, files)
	}
	e.pkg, e.err, e.inProgress = pkg, err, false
	if err == nil {
		l.prog.byPath[path] = pkg
	}
	return pkg, err
}

func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		n := ent.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || ent.IsDir() {
			continue
		}
		// The package is what a plain `go build` compiles: a file whose
		// build constraint excludes it (internal/race's -race half) is
		// not part of it.
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.prog.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *loader) typeCheck(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := cfg.Check(path, l.prog.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}
