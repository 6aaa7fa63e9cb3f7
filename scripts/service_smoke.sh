#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of cmd/routelabd.
#
# Starts the daemon on a tiny scenario (-scale 0.05), waits for the
# listening line, curls every /v1 endpoint and one 4xx per endpoint
# family, validates each JSON body against routelab-api/v1 with
# cmd/apicheck, checks the un-prefixed
# routes against their /v1/scenarios/default alias, then sends SIGTERM
# and checks the graceful drain exits 0. CI's service-smoke job runs this;
# locally: make service-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${ROUTELABD_ADDR:-localhost:18080}"
WORKDIR="$(mktemp -d)"
LOG="$WORKDIR/routelabd.log"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

echo "==> building"
go build -o "$WORKDIR/routelabd" ./cmd/routelabd
go build -o "$WORKDIR/apicheck" ./cmd/apicheck

echo "==> starting routelabd at -scale 0.05 on $ADDR"
"$WORKDIR/routelabd" -addr "$ADDR" -scale 0.05 -quiet \
    -request-timeout 60s -metrics-json "$WORKDIR/metrics.json" 2>"$LOG" &
PID=$!

for i in $(seq 1 120); do
    if grep -q "serving routelab-api/v1" "$LOG" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "routelabd died during startup:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 1
done
grep -q "serving routelab-api/v1" "$LOG" || {
    echo "routelabd never started listening:" >&2
    cat "$LOG" >&2
    exit 1
}

fetch() { # fetch NAME URL [expected_status [extra curl args...]]
    local name="$1" url="$2" want="${3:-200}"
    shift 2; [ $# -gt 0 ] && shift
    local out="$WORKDIR/$name.json"
    local status
    status=$(curl -sS -o "$out" -w '%{http_code}' "$@" "http://$ADDR$url")
    if [ "$status" != "$want" ]; then
        echo "FAIL $name: $* $url -> $status (want $want)" >&2
        cat "$out" >&2
        exit 1
    fi
    "$WORKDIR/apicheck" "$out"
}

echo "==> querying every /v1 endpoint"
fetch healthz     /v1/healthz
fetch metrics     /v1/metrics

# Trace ids are sparse (unusable traceroutes are dropped); find a live one.
TRACE=""
for t in $(seq 0 199); do
    if [ "$(curl -sS -o "$WORKDIR/classify.json" -w '%{http_code}'             "http://$ADDR/v1/classify?trace=$t")" = 200 ]; then
        TRACE=$t
        break
    fi
done
if [ -z "$TRACE" ]; then
    echo "FAIL: no measurement found in trace ids 0..199" >&2
    exit 1
fi
fetch classify    "/v1/classify?trace=$TRACE"
fetch classify1   "/v1/classify?trace=$TRACE&refinement=All-2"
fetch experiments /v1/experiments/table1
fetch prediction  /v1/experiments/prediction
fetch accuracy    /v1/experiments/accuracy

# Discover a live AS + alternates target from the healthz-validated
# classify payload (the first decision's "at").
AS=$(sed -n 's/.*"at":"AS\([0-9]*\)".*/\1/p' "$WORKDIR/classify.json" | head -1)
if [ -z "$AS" ]; then
    echo "FAIL: could not extract an AS from the classify payload" >&2
    exit 1
fi
fetch as          "/v1/as/$AS"
fetch alternates  "/v1/alternates?target=$AS"

echo "==> alias contract: un-prefixed routes are scenario \"default\""
# routelabd is always a fleet; without -scenario-dir it is a fleet of
# one named "default", so the listing answers and the prefixed healthz
# is byte-identical to the un-prefixed one.
fetch scenarios      /v1/scenarios
fetch defaulthealthz /v1/scenarios/default/healthz
cmp "$WORKDIR/healthz.json" "$WORKDIR/defaulthealthz.json" || {
    echo "FAIL: /v1/healthz and /v1/scenarios/default/healthz differ" >&2
    exit 1
}

echo "==> checking error paths"
# One 4xx per endpoint family, each a typed error envelope on the wire.
fetch notfound    /v1/definitely-not-a-route 404
fetch wrongmethod /v1/healthz                404 -X POST
fetch badtrace    "/v1/classify?trace=zzz"   400
fetch badtarget   "/v1/alternates?target=zzz" 400
fetch badasn      /v1/as/notanumber          400
fetch unknownexp  /v1/experiments/bogus      404
fetch badwhatif   /v1/whatif                 400 \
    -X POST --data-binary '{"schema":"routelab-whatif/v1"}'

echo "==> SIGTERM: graceful drain"
kill -TERM "$PID"
# No requests are in flight, so the drain is immediate and bounded by
# the daemon's -drain budget either way.
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
test -s "$WORKDIR/metrics.json" || {
    echo "FAIL: no metrics emission on exit" >&2
    exit 1
}

echo "service smoke: OK"
