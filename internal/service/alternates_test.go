package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"routelab/internal/asn"
)

// TestServedAlternatesMatchPerTargetDiscovery: for every AS, the served
// /v1/alternates body equals the body of a one-target
// Testbed.DiscoverAlternates walk from the tenant's anycast base — the
// per-request path the handler took before the tenant's build
// discovered every AS in one walk, kept here as the reference.
func TestServedAlternatesMatchPerTargetDiscovery(t *testing.T) {
	s := testScenario(t)
	srv, ts := newTestServer(t, Config{})
	prefix := s.Testbed.Prefixes[0]
	for _, a := range s.Topo.ASNs() {
		status, body := get(t, fmt.Sprintf("%s/v1/alternates?target=%s", ts.URL, a))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", a, status, body)
		}
		want, err := srv.renderAlternates(s.Testbed.DiscoverAlternates(prefix, []asn.ASN{a}, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		if body != string(want) {
			t.Errorf("%s: served body differs from a one-target discovery\n got %s\nwant %s", a, body, want)
		}
	}
}

// TestAlternatesOriginNamesNoNextHop pins the testbed origin's own
// discovery: one step, its own route, which no neighbor sent, so the
// next hop is empty rather than the reserved AS0.
func TestAlternatesOriginNamesNoNextHop(t *testing.T) {
	s := testScenario(t)
	_, ts := newTestServer(t, Config{})
	origin := s.Testbed.Origin
	status, body := get(t, fmt.Sprintf("%s/v1/alternates?target=%s", ts.URL, origin))
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, body)
	}
	e := checkEnvelope(t, body)
	var got AlternatesData
	if err := json.Unmarshal(e.Data, &got); err != nil {
		t.Fatal(err)
	}
	want := AlternatesData{
		Target:        origin.String(),
		Prefix:        s.Testbed.Prefixes[0].String(),
		Announcements: 1,
		Exhausted:     true,
		Verdict:       "Best & Shortest",
		Steps:         []AlternateStepData{{Path: fmt.Sprint(uint32(origin)), Inferred: "none"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("origin's alternates %+v, want %+v", got, want)
	}
}
