package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOpenLoopChargesAStallToLaterRequests drives the open loop at 400
// requests a second against a handler that takes 50 ms, through two
// workers: the server can answer 40 a second. Latency must run from the
// due time, the generator's lag must show, and the requests it never
// got to send must stay visible as a backlog.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		io.WriteString(w, `{"schema":"routelab-api/v1","kind":"health","data":{"status":"ok"}}`)
	}))
	defer srv.Close()
	g := &generator{
		f:     &fleet{base: srv.URL, client: srv.Client()},
		sched: []request{{endpoint: epHealthz, path: "/v1/healthz"}},
	}
	samples, due := g.openLoop(2, 400, 250*time.Millisecond)
	if due != 100 {
		t.Fatalf("due = %d, want 100", due)
	}
	if len(samples) == 0 || len(samples) >= due {
		t.Fatalf("sent %d of %d due: want some, and a backlog left unsent", len(samples), due)
	}
	st := summarize(samples)
	if st.failed != 0 || st.ok != len(samples) {
		t.Fatalf("ok %d failed %d of %d", st.ok, st.failed, len(samples))
	}
	var late int
	for _, s := range samples {
		if s.latNS-s.lagNS < int64(stall) {
			t.Fatalf("request %d: %v from its send, under the handler's %v", s.op, time.Duration(s.latNS-s.lagNS), stall)
		}
		if s.lagNS > int64(stall) {
			late++
		}
	}
	if late == 0 {
		t.Errorf("no request was sent late, though the server fell behind")
	}
	// Request i is due at i × 2.5 ms but sent no sooner than (i/2) × 50 ms:
	// the last ones waited most of a second.
	if lag := percentile(st.lagMS, 99); lag < 500 {
		t.Errorf("p99 lag %.0f ms, want over 500", lag)
	}
	if slow := percentile(st.latMS, 99); slow < 500 {
		t.Errorf("p99 latency %.0f ms does not include the wait behind the stall", slow)
	}
	if misses := sloMisses(samples, due, 5*time.Millisecond); misses != due {
		t.Errorf("%d of %d due missed a 5 ms limit; want all: none was answered in time and the unsent count too", misses, due)
	}
}
