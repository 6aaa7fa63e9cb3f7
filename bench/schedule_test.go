package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"routelab/internal/asn"
	"routelab/internal/service"
)

// testCatalogs stands in for a harvested three-tenant fleet.
func testCatalogs() []catalog {
	var cats []catalog
	for t, id := range []string{"smoke", "smoke-alt", "test"} {
		c := catalog{id: id, origin: asn.ASN(1000 * (t + 1))}
		for i := 1; i <= 170; i++ {
			c.ases = append(c.ases, asn.ASN(1000*(t+1)+i))
		}
		for i := 0; i < 160; i++ {
			c.traces = append(c.traces, 3*i+t)
		}
		for i := 0; i+1 < len(c.ases); i++ {
			c.links = append(c.links, [2]asn.ASN{c.ases[i], c.ases[i+1]})
		}
		c.links = append(c.links, [2]asn.ASN{c.origin, c.ases[0]})
		cats = append(cats, c)
	}
	return cats
}

func TestSchedulesAreSeeded(t *testing.T) {
	cats := testCatalogs()
	for name, gen := range map[string]func(int64, []catalog, int) []request{"hot": hotSchedule, "miss": missSchedule} {
		a, b, c := gen(7, cats, 4000), gen(7, cats, 4000), gen(8, cats, 4000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different schedules", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

func TestHotScheduleStaysInsideTheCache(t *testing.T) {
	sched := hotSchedule(2015, testCatalogs(), 20000)
	keys := map[string]bool{}
	perEndpoint := make([]int, len(endpoints))
	for _, q := range sched {
		perEndpoint[q.endpoint]++
		if q.endpoint != epHealthz { // healthz is served without the cache
			keys[q.key()] = true
		}
	}
	if len(keys) > hotKeyLimit {
		t.Errorf("%d distinct cache keys, want at most %d", len(keys), hotKeyLimit)
	}
	for ep, n := range perEndpoint {
		if n == 0 {
			t.Errorf("endpoint %s never scheduled", endpoints[ep])
		}
	}
	if share := float64(perEndpoint[epAS]) / float64(len(sched)); share < 0.27 || share > 0.33 {
		t.Errorf("as share %.3f, want about 0.30", share)
	}
}

func TestMissScheduleNeverReusesAKeyInsideTheWindow(t *testing.T) {
	sched := missSchedule(2015, testCatalogs(), 1<<15)
	last := map[string]int{}
	for i, q := range sched {
		if at, ok := last[q.key()]; ok && i-at < missWindow {
			t.Fatalf("request %d repeats the key of request %d, %d apart (window %d): %s", i, at, i-at, missWindow, q.path)
		}
		last[q.key()] = i
	}
	if len(last) < 10*cacheEntries {
		t.Errorf("%d distinct keys, want at least ten caches (%d)", len(last), 10*cacheEntries)
	}
	for _, q := range sched {
		if q.endpoint == epHealthz || q.endpoint == epAS {
			t.Fatalf("serve_miss scheduled %s", q.path)
		}
		if q.endpoint != epWhatIf {
			continue
		}
		var req service.WhatIfRequest
		if err := json.Unmarshal([]byte(q.body), &req); err != nil {
			t.Fatalf("what-if body %q: %v", q.body, err)
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("what-if body %q: %v", q.body, err)
		}
	}
}
