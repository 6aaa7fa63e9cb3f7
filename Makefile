# Tier-1 verification for routelab. `make verify` is the gate every
# change must pass: it builds everything, checks formatting, vets
# (including the copylocks and concurrency-sensitive checks), runs
# routelint (the in-tree invariant analyzers, DESIGN.md §11), and runs
# the full test suite under the race detector — the concurrency model in
# DESIGN.md is only trustworthy while this stays green, and the suite
# includes the scenario-corpus-versus-goldens check (internal/spec
# TestCorpusMatchesGoldens, SCENARIOS.md). CI
# (.github/workflows/ci.yml) runs verify plus lint, cover, and the
# ledger on every push/PR.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: verify build fmt-check vet test race bench fuzz-smoke service-smoke load-smoke lint staticcheck routelint lint-json lint-fix-list cover

verify: build fmt-check vet routelint race

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
# admission path (body sniffer, spec parsers, expansion) and the
# routelab-whatif/v1 request decoder. Both seed themselves with f.Add
# (the scenario corpus; the documents the tests and smoke scripts post),
# and testdata/fuzz holds only crashers the fuzzer finds. Long enough to
# catch a decoder panic or round-trip break introduced by a parser
# change, short enough for every CI run.
fuzz-smoke:
	$(GO) test ./internal/service -run=^$$ -fuzz=FuzzAdmitSpec -fuzztime=20s
	$(GO) test ./internal/service -run=^$$ -fuzz=FuzzWhatIfRequest -fuzztime=20s

# service-smoke boots routelabd on a tiny scenario, curls every /v1
# endpoint, validates the routelab-api/v1 envelopes with cmd/apicheck,
# and checks the SIGTERM graceful drain (scripts/service_smoke.sh).
service-smoke:
	bash scripts/service_smoke.sh

# load-smoke boots routelabd on the scenario corpus (-scenario-dir),
# admits one more scenario over POST /v1/scenarios and drives the two
# tiny worlds with cmd/routeload, which writes the routelab-load/v1
# emission and gates on it itself: zero errors, zero sheds, lax p99
# tripwire; then a saturation leg that must shed cleanly
# (scripts/load_smoke.sh; CI archives LOAD_routelab.json and
# LOAD_saturation.json, gate passed or not).
load-smoke:
	bash scripts/load_smoke.sh

# lint runs both linters: staticcheck (general Go hygiene) and
# routelint (this repo's own invariants — see DESIGN.md §11).
lint: staticcheck routelint

# staticcheck is the external linter (CI installs it with
# `go install honnef.co/go/tools/cmd/staticcheck@2025.1.1`).
staticcheck:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found; install it with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; \
		exit 1; }
	$(STATICCHECK) ./...

# routelint is the in-tree, dependency-free analyzer suite enforcing the
# repo's determinism/cancellation/hot-path invariants — four rules,
# DESIGN.md §11 (cmd/routelint). It is part of `make verify`,
# running before the (slow) race tests so an invariant violation fails
# fast: a violation fails tier-1, not just CI.
routelint:
	$(GO) run ./cmd/routelint ./...

# lint-fix-list is the cleanup view: findings batched per rule with a
# count, so a fix pass can be carved up rule by rule (or narrowed
# further with `go run ./cmd/routelint -rules <id> ./...`). The leading
# dash keeps make from failing — this target is for reading, not gating.
lint-fix-list:
	-$(GO) run ./cmd/routelint -group ./...

# lint-json emits the machine-readable routelab-lint/v1 report (CI
# archives LINT_routelab.json). routelint validates the report before
# encoding it and exits non-zero on findings; rule coverage is gated by
# tier-1 TestAnalyzerNamesStable, not here.
lint-json:
	$(GO) run ./cmd/routelint -format=json ./... > LINT_routelab.json

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1
