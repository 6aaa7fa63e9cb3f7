// Command scengen expands, validates, diffs, and lists routelab's
// declarative scenario specs (routelab-spec/v1, internal/spec): the
// tool that turns the checked-in corpus under scenarios/ into sealed
// scenario.Configs without recompiling Go.
//
// Usage:
//
//	scengen [flags] <command> [args]
//
// Commands:
//
//	expand <spec>       compile a spec and print the resulting Config
//	                    (-format=json emits the routelab-scengen/v1
//	                    envelope the corpus goldens pin)
//	validate <spec>...  check documents against the schema; prints one
//	                    line per problem
//	diff <a> <b>        field-level diff of two expanded configs
//	                    ("Topology.NumTier1: 12 -> 40")
//	list <dir>          one line per spec in a corpus directory
//
// Flags:
//
//	-format text|json   expand output format (default text)
//	-overlay a,b        extra overlays to apply, in order, after the
//	                    spec's own apply list
//
// Exit status follows the routelint convention: 0 clean, 1 on findings
// (invalid documents, differing configs), 2 on usage or I/O errors.
// The corpus-versus-goldens check is not here: it is tier-1
// TestCorpusMatchesGoldens in internal/spec, which also regenerates
// scenarios/golden/ under WRITE_GOLDEN=1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"routelab/internal/spec"
)

func main() {
	format := flag.String("format", "text", "expand output format: text or json (routelab-scengen/v1)")
	overlay := flag.String("overlay", "", "comma-separated overlays to apply after the spec's own apply list")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: scengen [flags] <expand|validate|diff|list> [args]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "scengen: unknown format %q (have text, json)\n", *format)
		os.Exit(2)
	}
	overlays := spec.SplitOverlays(*overlay)
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var (
		findings int
		err      error
	)
	switch cmd {
	case "expand":
		findings, err = cmdExpand(args, *format, overlays)
	case "validate":
		findings, err = cmdValidate(args, overlays)
	case "diff":
		findings, err = cmdDiff(args, overlays)
	case "list":
		findings, err = cmdList(args)
	default:
		fmt.Fprintf(os.Stderr, "scengen: unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scengen:", err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// specProblem classifies an error as a document finding (exit 1)
// rather than an environment/usage failure (exit 2): anything the
// spec's author can fix in the document. errors.As descends through
// wrapping and errors.Join trees.
func specProblem(err error) bool {
	var fe *spec.FieldError
	var pe *spec.ParseError
	return errors.As(err, &fe) || errors.As(err, &pe)
}

func cmdExpand(args []string, format string, overlays []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("expand takes exactly one spec file")
	}
	e, err := spec.Expand(args[0], overlays)
	if err != nil {
		if specProblem(err) {
			fmt.Fprintln(os.Stderr, err)
			return 1, nil
		}
		return 0, err
	}
	if format == "json" {
		out, err := e.MarshalCanonical()
		if err != nil {
			return 0, err
		}
		os.Stdout.Write(out)
		return 0, nil
	}
	fmt.Printf("# %s (profile %s", e.Name, e.Profile)
	if len(e.Overlays) > 0 {
		fmt.Printf(", overlays %s", strings.Join(e.Overlays, ", "))
	}
	fmt.Println(")")
	if e.Description != "" {
		fmt.Println("#", e.Description)
	}
	lines, err := e.Flatten()
	if err != nil {
		return 0, err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return 0, nil
}

func cmdValidate(args []string, overlays []string) (int, error) {
	if len(args) == 0 {
		return 0, fmt.Errorf("validate takes one or more spec files")
	}
	findings := 0
	for _, path := range args {
		_, err := spec.Expand(path, overlays)
		switch {
		case err == nil:
			fmt.Printf("%s: ok\n", path)
		case specProblem(err):
			findings++
			fmt.Printf("%s: INVALID\n", path)
			fmt.Printf("  %s\n", strings.ReplaceAll(err.Error(), "\n", "\n  "))
		default:
			return 0, err
		}
	}
	return findings, nil
}

func cmdDiff(args []string, overlays []string) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("diff takes exactly two spec files")
	}
	a, err := spec.Expand(args[0], overlays)
	if err != nil {
		return 0, err
	}
	b, err := spec.Expand(args[1], overlays)
	if err != nil {
		return 0, err
	}
	lines, err := spec.Diff(a, b)
	if err != nil {
		return 0, err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		fmt.Fprintf(os.Stderr, "scengen: %d field(s) differ between %s and %s\n", len(lines), a.Name, b.Name)
		return 1, nil
	}
	return 0, nil
}

func cmdList(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("list takes exactly one directory")
	}
	files, err := corpusFiles(args[0])
	if err != nil {
		return 0, err
	}
	findings := 0
	for _, f := range files {
		e, err := spec.Expand(f, nil)
		if err != nil {
			findings++
			fmt.Printf("%-24s INVALID: %v\n", filepath.Base(f), err)
			continue
		}
		tag := e.Profile
		if len(e.Overlays) > 0 {
			tag += "+" + strings.Join(e.Overlays, "+")
		}
		fmt.Printf("%-24s %-12s %s\n", e.Name, tag, e.Description)
	}
	return findings, nil
}

// corpusFiles lists the spec documents of a directory, sorted.
func corpusFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".yaml", ".yml", ".json":
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
