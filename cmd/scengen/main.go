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
//
// Exit status: 0 clean, 1 on findings (invalid documents, differing
// configs), 2 on usage or I/O errors.
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
	"strings"

	"routelab/internal/spec"
)

func main() {
	format := flag.String("format", "text", "expand output format: text or json (routelab-scengen/v1)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: scengen [flags] <expand|validate|diff|list> [args]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "scengen: unknown format %q (have text, json)\n", *format)
		os.Exit(2)
	}
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
		findings, err = cmdExpand(args, *format)
	case "validate":
		findings, err = cmdValidate(args)
	case "diff":
		findings, err = cmdDiff(args)
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

// reported turns an Expand error into a command's outcome: a document
// finding is printed to stderr and counted (exit 1), anything else
// stays an error (exit 2).
func reported(err error) (int, error) {
	if specProblem(err) {
		fmt.Fprintln(os.Stderr, err)
		return 1, nil
	}
	return 0, err
}

func cmdExpand(args []string, format string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("expand takes exactly one spec file")
	}
	e, err := spec.Expand(args[0], nil)
	if err != nil {
		return reported(err)
	}
	if format == "json" {
		out, err := e.MarshalCanonical()
		if err != nil {
			return 0, err
		}
		os.Stdout.Write(out)
		return 0, nil
	}
	fmt.Printf("# %s (profile %s)\n", e.Name, e.Profile)
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

func cmdValidate(args []string) (int, error) {
	if len(args) == 0 {
		return 0, fmt.Errorf("validate takes one or more spec files")
	}
	findings := 0
	for _, path := range args {
		_, err := spec.Expand(path, nil)
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

func cmdDiff(args []string) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("diff takes exactly two spec files")
	}
	a, err := spec.Expand(args[0], nil)
	if err != nil {
		return reported(err)
	}
	b, err := spec.Expand(args[1], nil)
	if err != nil {
		return reported(err)
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
	files, err := spec.Files(args[0])
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
		fmt.Printf("%-24s %-12s %s\n", e.Name, e.Profile, e.Description)
	}
	return findings, nil
}
