package lint

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{{
		Pos:     token.Position{Filename: "internal/bgp/engine.go", Line: 42, Column: 3},
		Rule:    "hotatomic",
		Message: "per-event counter on the Converge hot path",
	}}
}

func TestBuildReportRoundTrip(t *testing.T) {
	rep := BuildReport("routelab", Analyzers(), 31, sampleFindings())
	if err := rep.Validate(); err != nil {
		t.Fatalf("built report invalid: %v", err)
	}
	if rep.Clean {
		t.Fatal("report with findings marked clean")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if back.Module != "routelab" || back.Packages != 31 || len(back.Findings) != 1 {
		t.Fatalf("round trip mangled report: %+v", back)
	}
	if back.Findings[0].Rule != "hotatomic" || back.Findings[0].Line != 42 {
		t.Fatalf("round trip mangled finding: %+v", back.Findings[0])
	}
}

func TestBuildReportClean(t *testing.T) {
	rep := BuildReport("routelab", Analyzers(), 31, nil)
	if err := rep.Validate(); err != nil {
		t.Fatalf("clean report invalid: %v", err)
	}
	if !rep.Clean {
		t.Fatal("finding-free report not marked clean")
	}
	// Findings must encode as [] rather than null so consumers can
	// range without a nil check.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(data), `"findings":null`) {
		t.Fatalf("clean report encodes findings as null: %s", data)
	}
}

func TestReportValidateRejects(t *testing.T) {
	base := func() *Report { return BuildReport("routelab", Analyzers(), 31, sampleFindings()) }
	cases := []struct {
		name     string
		mutate   func(*Report)
		wantFrag string
	}{
		{"wrong schema", func(r *Report) { r.Schema = "routelab-lint/v2" }, "schema"},
		{"empty module", func(r *Report) { r.Module = "" }, "module"},
		{"empty go version", func(r *Report) { r.GoVersion = "" }, "go_version"},
		{"no analyzers", func(r *Report) { r.Analyzers = nil }, "no analyzers"},
		{"anonymous analyzer", func(r *Report) { r.Analyzers[0].Name = "" }, "empty name"},
		{"zero packages", func(r *Report) { r.Packages = 0 }, "packages"},
		{"finding without file", func(r *Report) { r.Findings[0].File = "" }, "empty file"},
		{"finding without line", func(r *Report) { r.Findings[0].Line = 0 }, "line"},
		{"finding without rule", func(r *Report) { r.Findings[0].Rule = "" }, "empty rule"},
		{"finding without message", func(r *Report) { r.Findings[0].Message = "" }, "empty message"},
		{"clean flag lies", func(r *Report) { r.Clean = true }, "clean"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base()
			tc.mutate(rep)
			err := rep.Validate()
			if err == nil {
				t.Fatal("validate accepted a corrupt report")
			}
			if !strings.Contains(err.Error(), tc.wantFrag) {
				t.Fatalf("error %q does not mention %q", err, tc.wantFrag)
			}
		})
	}
}
