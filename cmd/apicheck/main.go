// Command apicheck validates routelab-api/v1 response envelopes: read
// JSON from files (or stdin with no arguments), check the schema tag,
// the kind, and the payload, and exit non-zero with a message on the
// first violation.
//
// A document tagged routelab-whatif/v1 is checked as a what-if REQUEST
// instead (the delta-XOR-deltas contract, known kinds, the batch cap),
// so CI can lint both directions of the POST /v1/whatif exchange. A
// response envelope of kind "whatif" additionally has its payload's
// internal consistency verified (result counts, diff arithmetic), and
// kind "build" (the build-progress endpoint) has its state machine
// checked (state enum, percent/phase agreement).
//
// Usage:
//
//	apicheck [file...]
//	curl -s localhost:8080/v1/healthz | apicheck
//
// The CI service-smoke job pipes every /v1 endpoint's body through it.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"routelab/internal/service"
)

func check(name string, r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if probe.Schema == service.WhatIfSchema {
		return checkWhatIfRequest(name, raw)
	}
	var e service.Envelope
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if err := e.Validate(); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	switch e.Kind {
	case "whatif":
		var data service.WhatIfData
		if err := json.Unmarshal(e.Data, &data); err != nil {
			return fmt.Errorf("%s: whatif data: %v", name, err)
		}
		if err := data.Validate(); err != nil {
			return fmt.Errorf("%s: whatif data: %v", name, err)
		}
	case "build":
		var data service.BuildProgressData
		if err := json.Unmarshal(e.Data, &data); err != nil {
			return fmt.Errorf("%s: build data: %v", name, err)
		}
		if err := data.Validate(); err != nil {
			return fmt.Errorf("%s: build data: %v", name, err)
		}
	}
	fmt.Printf("%s: ok (%s, kind %s, %d data bytes)\n", name, e.Schema, e.Kind, len(e.Data))
	return nil
}

func checkWhatIfRequest(name string, raw []byte) error {
	var req service.WhatIfRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if err := req.Validate(); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	fmt.Printf("%s: ok (%s request, %d deltas)\n", name, service.WhatIfSchema, len(req.All()))
	return nil
}

func main() {
	if len(os.Args) < 2 {
		if err := check("stdin", os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "apicheck:", err)
			os.Exit(1)
		}
		return
	}
	for _, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apicheck:", err)
			os.Exit(1)
		}
		err = check(path, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "apicheck:", err)
			os.Exit(1)
		}
	}
}
