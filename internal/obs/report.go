// The run Report: the structured JSON document behind -metrics-json,
// which makes one run's stage timings and counters machine-readable.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// ReportSchema identifies the document; bump the suffix on breaking
// shape changes so downstream consumers can dispatch on it.
const ReportSchema = "routelab-metrics/v1"

// Report is the structured run report behind routelab's -metrics-json:
// what ran, on what runtime, how long, and the full metrics snapshot
// (per-stage wall-clock timings plus every counter and gauge).
type Report struct {
	Schema     string  `json:"schema"`
	Command    string  `json:"command,omitempty"`
	Experiment string  `json:"experiment,omitempty"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Workers    int     `json:"workers"`

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// WallNS is the end-to-end wall clock of the run in nanoseconds.
	WallNS int64 `json:"wall_ns"`

	Metrics Snapshot `json:"metrics"`
}

// NewReport returns a Report with the schema and runtime fields filled
// in; the caller sets the run-shape fields and the metrics snapshot.
func NewReport() Report {
	return Report{
		Schema:     ReportSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
