# Tier-1 verification for routelab. `make verify` is the gate every
# change must pass: it builds everything, checks formatting, vets
# (including the copylocks and concurrency-sensitive checks), and runs
# the full test suite under the race detector — the concurrency model in
# DESIGN.md is only trustworthy while this stays green, and the suite
# includes the scenario-corpus-versus-goldens check (internal/spec
# TestCorpusMatchesGoldens, SCENARIOS.md), the in-tree invariant
# analyzers (internal/lint TestRepoIsClean, DESIGN.md §11) and the
# end-to-end runs of all four commands through their main: cmd/routelabd
# TestLifecycle*, cmd/routeload TestDrive* and its discovery legs,
# cmd/scengen's commands and exit codes, and cmd/routelab's refusals and
# -workers byte-identity. cmd/routelab TestFullScaleGolden, the
# full-scale run compared byte for byte with results_full_scale.txt,
# skips under -race: it gates in `make test` and CI's coverage job. CI
# (.github/workflows/ci.yml) runs verify plus staticcheck, cover, and the
# ledger on every push/PR.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: verify build fmt-check vet test race bench fuzz-smoke lint staticcheck cover loc

verify: build fmt-check vet race

build:
	$(GO) build ./...

fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the ledger (BENCHMARK.json + bench/, see bench/README.md):
# every workload untraced then traced, results under bench/out/. It is
# the one place timings are measured; it fails on its own output checks
# (digest = golden, parallel = serial, bgp.diverged = 0, no failed
# operation) and has no thresholds.
bench:
	$(GO) run ./bench -all

# fuzz-smoke gives each native fuzz target a short budget: the fleet
# admission path (spec.Parse's body sniffer, both parsers, expansion), the
# routelab-whatif/v1 request decoder, the response envelope reader
# (ReadEnvelope, against decode-then-Validate) and its one-pass JSON
# scanner (against json.Valid). All four seed themselves with f.Add (the
# scenario corpus; the documents the tests post; one served body of
# every envelope kind),
# and testdata/fuzz holds only crashers the fuzzer finds. Long enough to
# catch a decoder panic or round-trip break introduced by a parser
# change, short enough for every CI run.
fuzz-smoke:
	$(GO) test ./internal/service -run=^$$ -fuzz=FuzzAdmitSpec -fuzztime=20s
	$(GO) test ./internal/service -run=^$$ -fuzz=FuzzWhatIfRequest -fuzztime=20s
	$(GO) test ./internal/service -run=^$$ -fuzz=FuzzReadEnvelope -fuzztime=20s
	$(GO) test ./internal/service -run=^$$ -fuzz=FuzzScanJSON -fuzztime=20s

# lint is staticcheck (general Go hygiene); this repo's own invariants
# are a test, internal/lint TestRepoIsClean (DESIGN.md §11).
lint: staticcheck

# staticcheck is the external linter (CI installs it with
# `go install honnef.co/go/tools/cmd/staticcheck@2025.1.1`).
staticcheck:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found; install it with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; \
		exit 1; }
	$(STATICCHECK) ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# loc prints the two line counts a simplicity change records before and
# after: non-test Go lines under cmd/ and internal/, then test lines
# there (testdata excluded from both). CI's coverage job appends them to
# its job summary as a record, not a gate.
GO_SOURCES = find cmd internal -name '*.go' -not -path '*/testdata/*'
loc:
	@echo "non-test Go lines (cmd/, internal/): $$($(GO_SOURCES) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines (cmd/, internal/): $$($(GO_SOURCES) -name '*_test.go' | xargs cat | wc -l)"
