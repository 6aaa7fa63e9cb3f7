// Command routelint runs routelab's repo-invariant static-analysis
// suite (internal/lint): four analyzers that prove, at compile time,
// the determinism, cancellation, and hot-path rules the reproduction's
// goldens and concurrency model depend on. It is
// dependency-free — stdlib go/ast, go/parser, go/types, and go/importer
// only — so it runs on a bare toolchain and keeps go.mod require-free.
//
// Usage:
//
//	routelint [-format=text|json] [-rules a,b] [-exclude-rules c]
//	          [-group] [-list] [packages...]
//
// Packages default to ./... (every package in the enclosing module).
// Findings print as "file:line:col: [rule-id] message"; -group instead
// batches text output by rule (the `make lint-fix-list` view). -rules
// restricts the run to a comma-separated subset of the suite and
// -exclude-rules drops rules from it; suppression directives are still
// validated against the full registry, so a narrowed run never
// misreports `//lint:allow` lines for the rules it skipped.
// -format=json emits a routelab-lint/v1 report instead of text,
// validated (Report.Validate) before it is encoded. Suppress an
// individual finding with a `//lint:allow rule-id reason` comment on the
// finding's line or the line above; the reason is mandatory.
//
// Exit status: 0 when every selected rule is clean, 1 on findings, 2 on
// usage errors (including unknown rule ids), module load errors, or a
// report that fails its own validation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"routelab/internal/lint"
)

func main() {
	format := flag.String("format", "text", "output format: text or json (routelab-lint/v1)")
	rules := flag.String("rules", "", "comma-separated rule ids to run (default: the whole suite)")
	excludeRules := flag.String("exclude-rules", "", "comma-separated rule ids to skip")
	group := flag.Bool("group", false, "group text findings by rule (fix-list view)")
	list := flag.Bool("list", false, "list the analyzer suite and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: routelint [-format=text|json] [-rules a,b] [-exclude-rules c] [-group] [-list] [packages...]")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "routelint: unknown format %q (have text, json)\n", *format)
		os.Exit(2)
	}
	analyzers, err := lint.SelectAnalyzers(all, splitRules(*rules), splitRules(*excludeRules))
	if err != nil {
		fmt.Fprintln(os.Stderr, "routelint:", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	prog, err := lint.Load(cwd)
	if err != nil {
		fail(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := selectPackages(prog, cwd, patterns)
	if err != nil {
		fail(err)
	}
	findings := lint.Run(prog, pkgs, analyzers)

	switch *format {
	case "json":
		rep := lint.BuildReport(prog.ModulePath, analyzers, len(pkgs), relativize(findings, cwd))
		if err := rep.Validate(); err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	default:
		rel := relativize(findings, cwd)
		if *group {
			printGrouped(rel, analyzers)
		} else {
			for _, f := range rel {
				fmt.Println(f)
			}
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "routelint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// printGrouped batches findings under one heading per rule, in registry
// order, with a per-rule count — the view `make lint-fix-list` serves
// so a cleanup pass can be carved up rule by rule.
func printGrouped(findings []lint.Finding, analyzers []*lint.Analyzer) {
	byRule := make(map[string][]lint.Finding)
	for _, f := range findings {
		byRule[f.Rule] = append(byRule[f.Rule], f)
	}
	for _, a := range analyzers {
		fs := byRule[a.Name]
		if len(fs) == 0 {
			continue
		}
		fmt.Printf("%s: %d finding(s) — %s\n", a.Name, len(fs), a.Doc)
		for _, f := range fs {
			fmt.Printf("  %s:%d:%d: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
		}
	}
}

// splitRules parses one comma-separated rule-id list, dropping empty
// elements so "-rules=" means "no restriction".
func splitRules(s string) []string {
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "routelint:", err)
	os.Exit(2)
}

// selectPackages resolves go-style package patterns against the loaded
// program: "./..." (everything), "./dir/..." (a subtree), "./dir" (one
// package), or bare import paths with an optional /... suffix.
func selectPackages(prog *lint.Program, cwd string, patterns []string) ([]*lint.Package, error) {
	selected := make(map[string]bool)
	for _, pat := range patterns {
		paths, err := expandPattern(prog, cwd, pat)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			selected[p] = true
		}
	}
	var out []*lint.Package
	for _, pkg := range prog.Packages {
		if selected[pkg.Path] {
			out = append(out, pkg)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	return out, nil
}

func expandPattern(prog *lint.Program, cwd, pat string) ([]string, error) {
	recursive := false
	if p, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive, pat = true, p
	}
	var base string
	if pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") {
		abs, err := filepath.Abs(filepath.Join(cwd, pat))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(prog.Root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %s escapes module root %s", pat, prog.Root)
		}
		base = prog.ModulePath
		if rel != "." {
			base += "/" + filepath.ToSlash(rel)
		}
	} else {
		base = pat
	}
	var out []string
	for _, pkg := range prog.Packages {
		if pkg.Path == base || (recursive && strings.HasPrefix(pkg.Path, base+"/")) {
			out = append(out, pkg.Path)
		}
	}
	if len(out) == 0 && !recursive {
		return nil, fmt.Errorf("no package matches %s", pat)
	}
	return out, nil
}

// relativize rewrites finding paths relative to the working directory
// for compact, clickable output.
func relativize(findings []lint.Finding, cwd string) []lint.Finding {
	out := make([]lint.Finding, len(findings))
	for i, f := range findings {
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		out[i] = f
	}
	return out
}
