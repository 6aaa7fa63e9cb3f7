package lint

import (
	"fmt"
	"runtime"
)

// ReportSchema identifies the machine-readable routelint emission
// format, versioned like routelab-api/v1 so downstream tooling can
// reject drift.
const ReportSchema = "routelab-lint/v1"

// Report is the -format=json emission of cmd/routelint: the analyzed
// module, the suite that ran, and every (post-suppression) finding.
type Report struct {
	Schema    string          `json:"schema"`
	Module    string          `json:"module"`
	GoVersion string          `json:"go_version"`
	Analyzers []AnalyzerInfo  `json:"analyzers"`
	Packages  int             `json:"packages"`
	Findings  []ReportFinding `json:"findings"`
	Clean     bool            `json:"clean"`
}

// AnalyzerInfo describes one rule of the suite.
type AnalyzerInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// ReportFinding is one finding in emission form.
type ReportFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// BuildReport assembles the emission for a completed run. packages is
// the number of packages analyzed; findings are post-suppression.
func BuildReport(module string, analyzers []*Analyzer, packages int, findings []Finding) *Report {
	rep := &Report{
		Schema:    ReportSchema,
		Module:    module,
		GoVersion: runtime.Version(),
		Packages:  packages,
		Findings:  make([]ReportFinding, 0, len(findings)),
		Clean:     len(findings) == 0,
	}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, AnalyzerInfo{Name: a.Name, Doc: a.Doc})
	}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, ReportFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Rule: f.Rule, Message: f.Message,
		})
	}
	return rep
}

// Validate checks the structural invariants of a routelab-lint/v1
// emission before cmd/routelint encodes it: schema pinned,
// non-empty suite, well-formed findings, and a Clean flag consistent
// with the finding count.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("lint report: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.Module == "" {
		return fmt.Errorf("lint report: empty module")
	}
	if r.GoVersion == "" {
		return fmt.Errorf("lint report: empty go_version")
	}
	if len(r.Analyzers) == 0 {
		return fmt.Errorf("lint report: no analyzers ran")
	}
	for i, a := range r.Analyzers {
		if a.Name == "" || a.Doc == "" {
			return fmt.Errorf("lint report: analyzer %d has empty name or doc", i)
		}
	}
	if r.Packages <= 0 {
		return fmt.Errorf("lint report: packages = %d, want > 0", r.Packages)
	}
	for i, f := range r.Findings {
		switch {
		case f.File == "":
			return fmt.Errorf("lint report: finding %d has empty file", i)
		case f.Line <= 0:
			return fmt.Errorf("lint report: finding %d (%s) has line %d, want > 0", i, f.File, f.Line)
		case f.Rule == "":
			return fmt.Errorf("lint report: finding %d (%s:%d) has empty rule", i, f.File, f.Line)
		case f.Message == "":
			return fmt.Errorf("lint report: finding %d (%s:%d) has empty message", i, f.File, f.Line)
		}
	}
	if r.Clean != (len(r.Findings) == 0) {
		return fmt.Errorf("lint report: clean = %v with %d findings", r.Clean, len(r.Findings))
	}
	return nil
}
