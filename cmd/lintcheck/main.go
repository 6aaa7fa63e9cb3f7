// Command lintcheck validates a routelint JSON emission (schema
// routelab-lint/v1, written by `routelint -format=json`) and prints a
// human-readable summary — the apicheck validator pattern applied to
// the static-analysis report. It exits non-zero on a
// missing, unparseable, or malformed file, which is how CI's routelint
// job fails on a broken emission.
//
// Beyond schema validity it also gates on rule count: -min-rules
// (default: the size of the registry this binary was built against)
// rejects a report produced by a narrowed `-rules` run or by a build
// where an analyzer was deleted, so CI cannot silently lose coverage.
//
// Usage:
//
//	lintcheck [-min-rules N] [path]    (default LINT_routelab.json)
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"routelab/internal/lint"
)

func main() {
	minRules := flag.Int("min-rules", len(lint.Analyzers()),
		"fail unless the report covers at least this many rules")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lintcheck [-min-rules N] [path to LINT_routelab.json]")
		flag.PrintDefaults()
	}
	flag.Parse()
	path := "LINT_routelab.json"
	switch flag.NArg() {
	case 0:
	case 1:
		path = flag.Arg(0)
	default:
		flag.Usage()
		os.Exit(2)
	}

	rep, err := lint.ReadReport(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintcheck:", err)
		os.Exit(1)
	}
	if len(rep.Analyzers) < *minRules {
		fmt.Fprintf(os.Stderr, "lintcheck: %s: rule coverage regressed: report has %d analyzer(s), want >= %d (was it produced by a -rules subset, or was an analyzer deleted?)\n",
			path, len(rep.Analyzers), *minRules)
		os.Exit(1)
	}

	fmt.Printf("%s: valid %s emission (module %s, %s, %d packages)\n",
		path, rep.Schema, rep.Module, rep.GoVersion, rep.Packages)
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "rule\tinvariant")
	for _, a := range rep.Analyzers {
		fmt.Fprintf(w, "%s\t%s\n", a.Name, a.Doc)
	}
	w.Flush()
	if rep.Clean {
		fmt.Printf("%d analyzers, clean tree\n", len(rep.Analyzers))
		return
	}
	fmt.Printf("%d analyzers, %d finding(s):\n", len(rep.Analyzers), len(rep.Findings))
	for _, f := range rep.Findings {
		fmt.Printf("  %s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Rule, f.Message)
	}
}
