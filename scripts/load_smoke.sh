#!/usr/bin/env bash
# load_smoke.sh — end-to-end smoke test of the multi-scenario fleet and
# the load harness.
#
# Leg 1 (healthy fleet): boots routelabd in fleet mode on the checked-in
# corpus (-scenario-dir scenarios; registration is cheap, builds are
# lazy), admits one extra scenario over POST /v1/scenarios, polls the
# build-progress endpoint through cmd/apicheck, and drives the two tiny
# worlds (smoke, smoke-alt) with cmd/routeload on a small request budget
# with 1 s latency buckets. routeload writes the routelab-load/v1
# emission and gates on it itself: zero errors, zero sheds (an
# unsaturated fleet must never shed), and a deliberately lax p99
# tripwire (this is a blowup detector, not a latency SLO — CI machines
# vary). Finishes with a SIGTERM drain check.
#
# Leg 2 (saturation): reboots the fleet with tiny overload gates
# (-max-concurrent 1 -max-queued-requests 1 -max-queued-builds 1; one
# build runs at a time) and hammers it with more clients than it can
# admit. The gate: nonzero clean sheds (verified 429s with Retry-After
# and the overloaded code — routeload -min-sheds 1) and zero errors
# otherwise. Overload protection must engage, and must stay clean while
# it does. Its emission lands in LOAD_saturation.json beside $OUT, gate
# passed or not.
#
# CI's load-smoke job runs this; locally: make load-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${ROUTELABD_ADDR:-localhost:18090}"
SAT_ADDR="${ROUTELABD_SAT_ADDR:-localhost:18091}"
OUT="${LOAD_OUT:-LOAD_routelab.json}"
SAT_OUT="$(dirname "$OUT")/LOAD_saturation.json"
WORKDIR="$(mktemp -d)"
LOG="$WORKDIR/routelabd.log"
SAT_LOG="$WORKDIR/routelabd-sat.log"
PID=""
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

echo "==> building"
go build -o "$WORKDIR/routelabd" ./cmd/routelabd
go build -o "$WORKDIR/routeload" ./cmd/routeload
go build -o "$WORKDIR/apicheck" ./cmd/apicheck

# wait_serving LOG: block until routelabd logs its listening line.
wait_serving() {
    local log="$1"
    for i in $(seq 1 60); do
        if grep -q "serving routelab-api/v1" "$log" 2>/dev/null; then
            return 0
        fi
        if ! kill -0 "$PID" 2>/dev/null; then
            echo "routelabd died during startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 1
    done
    echo "routelabd never started listening:" >&2
    cat "$log" >&2
    exit 1
}

echo "==> starting routelabd fleet on $ADDR (-scenario-dir scenarios)"
"$WORKDIR/routelabd" -addr "$ADDR" -scenario-dir scenarios -quiet \
    -request-timeout 120s 2>"$LOG" &
PID=$!
wait_serving "$LOG"

echo "==> fleet lists the corpus"
curl -sS "http://$ADDR/v1/scenarios" >"$WORKDIR/scenarios.json"
for id in smoke smoke-alt paper; do
    grep -q "\"$id\"" "$WORKDIR/scenarios.json" || {
        echo "FAIL: corpus scenario $id not registered" >&2
        cat "$WORKDIR/scenarios.json" >&2
        exit 1
    }
done

echo "==> admitting a scenario over POST /v1/scenarios"
STATUS=$(curl -sS -o "$WORKDIR/admit.json" -w '%{http_code}' \
    -X POST --data-binary @- "http://$ADDR/v1/scenarios" <<'EOF'
spec: routelab-spec/v1
name: admitted-smoke
description: Admitted over the API by load_smoke.sh
profile: tiny
seed: 2017
EOF
)
if [ "$STATUS" != 201 ]; then
    echo "FAIL: admission -> $STATUS (want 201)" >&2
    cat "$WORKDIR/admit.json" >&2
    exit 1
fi
STATUS=$(curl -sS -o /dev/null -w '%{http_code}' \
    "http://$ADDR/v1/scenarios/admitted-smoke/healthz")
if [ "$STATUS" != 200 ]; then
    echo "FAIL: admitted scenario healthz -> $STATUS" >&2
    exit 1
fi

echo "==> build progress: pending and built snapshots both pass apicheck"
# paper is registered but never driven: pending. admitted-smoke was just
# served: built. Both bodies must be valid kind "build" envelopes, and
# polling must answer instantly without triggering a build.
curl -sS "http://$ADDR/v1/scenarios/paper/build" | "$WORKDIR/apicheck"
curl -sS "http://$ADDR/v1/scenarios/paper/build" >"$WORKDIR/pending.json"
grep -q '"state":"pending"' "$WORKDIR/pending.json" || {
    echo "FAIL: un-driven scenario is not pending" >&2
    cat "$WORKDIR/pending.json" >&2
    exit 1
}
curl -sS "http://$ADDR/v1/scenarios/admitted-smoke/build" >"$WORKDIR/built.json"
"$WORKDIR/apicheck" "$WORKDIR/built.json"
grep -q '"state":"built"' "$WORKDIR/built.json" || {
    echo "FAIL: served scenario is not built" >&2
    cat "$WORKDIR/built.json" >&2
    exit 1
}

echo "==> what-if round trip: request and response both pass apicheck"
WHATIF_DOC='{"schema":"routelab-whatif/v1","deltas":[{"kind":"withdraw"},{"kind":"prepend","prepend":2}]}'
printf '%s' "$WHATIF_DOC" | "$WORKDIR/apicheck"
STATUS=$(curl -sS -o "$WORKDIR/whatif.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    --data-binary "$WHATIF_DOC" "http://$ADDR/v1/scenarios/smoke/whatif")
if [ "$STATUS" != 200 ]; then
    echo "FAIL: whatif -> $STATUS (want 200)" >&2
    cat "$WORKDIR/whatif.json" >&2
    exit 1
fi
"$WORKDIR/apicheck" "$WORKDIR/whatif.json"

echo "==> driving the tiny fleet with routeload (gates: no errors, no sheds, p99 tripwire)"
"$WORKDIR/routeload" -addr "$ADDR" -scenarios smoke,smoke-alt \
    -clients 8 -requests 160 -bucket 1s -out "$OUT" \
    -max-error-rate 0 -max-shed-rate 0 -max-p99 30s

echo "==> SIGTERM: graceful drain"
kill -TERM "$PID"
wait "$PID" && rc=0 || rc=$?
if [ "$rc" != 0 ]; then
    echo "FAIL: routelabd exited $rc after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q "drained, bye" "$LOG" || {
    echo "FAIL: no drain confirmation in log" >&2
    cat "$LOG" >&2
    exit 1
}

echo "==> saturation leg: tiny gates on $SAT_ADDR must shed cleanly"
# -cache 1 keeps the response cache from absorbing the load: routeload's
# warmup touches every target once, and with the default cache the
# measured run would be ~all hits that never reach the admission gate.
# One entry forces recomputation, so the 16 clients actually contend.
"$WORKDIR/routelabd" -addr "$SAT_ADDR" -scenario-dir scenarios -quiet \
    -max-concurrent 1 -max-queued-requests 1 -cache 1 \
    -max-queued-builds 1 -request-timeout 120s 2>"$SAT_LOG" &
PID=$!
wait_serving "$SAT_LOG"

# Twice the clients of the healthy leg against one build slot and a
# one-deep build queue, plus four COLD corpus scenarios whose first
# touches land mid-run: concurrent cold builds overrun the build gate,
# and the overflow must surface as verified 429s (counted as sheds by
# routeload, never as errors) while everything the fleet does admit
# still serves correctly. The cold ids are default-scale test worlds
# (~2-3s builds — NOT the scale-1.0 pathological worlds, whose builds
# run minutes and would stall the leg past the client timeout): seconds
# of build against millisecond arrivals keeps the shed floor machine-
# independent — single-core runners included, where request computes
# are too quick to ever overlap on the request gate. -spread adds
# distinct experiments cache keys so fast machines exercise request
# shedding too (coalesced waiters never shed).
"$WORKDIR/routeload" -addr "$SAT_ADDR" -scenarios smoke,smoke-alt \
    -cold clean-baseline,jittered,domestic,monitor-starved \
    -clients 16 -requests 320 -bucket 1s -spread 320 \
    -out "$SAT_OUT" -max-error-rate 0 -min-sheds 1

kill -TERM "$PID"
wait "$PID" && rc=0 || rc=$?
if [ "$rc" != 0 ]; then
    echo "FAIL: saturated routelabd exited $rc after SIGTERM" >&2
    cat "$SAT_LOG" >&2
    exit 1
fi

echo "load smoke: OK ($OUT, $SAT_OUT)"
