package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"routelab/internal/spec"
	"routelab/internal/topology"
	"routelab/internal/whatif"
)

// FuzzAdmitSpec drives the fleet admission decode path — spec.Parse,
// which picks its parser from the body's first non-blank byte, and the
// expansion — with arbitrary bodies. It seeds itself at test time with
// the real scenario corpus (every scenarios/*.yaml and *.json, exactly
// as a client would POST it) plus both sides of the sniff and
// malformed documents; testdata/fuzz/FuzzAdmitSpec is only for
// crashers the fuzzer finds. Properties:
//
//   - parsing the sniffed format never panics; malformed input returns
//     an error at some stage, exactly as POST /v1/scenarios would 400
//     it;
//   - an accepted JSON body holds one value: json.Valid accepts it
//     whole, so bytes after the document's object are never ignored;
//   - an accepted expansion can be registered if and only if it has a
//     name — Register on a fresh store must agree with the handler's
//     contract, never letting an anonymous or half-parsed spec into
//     the fleet.
func FuzzAdmitSpec(f *testing.F) {
	corpus, err := spec.Files(filepath.Join("..", "..", "scenarios"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no scenario corpus to seed from (err %v)", err)
	}
	for _, path := range corpus {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	// The sniff's two sides, and malformed documents that must error,
	// not panic.
	f.Add([]byte("spec: routelab-spec/v1\nname: fuzz-seed\nprofile: test\n"))
	f.Add([]byte(`  {"spec": "routelab-spec/v1", "name": "fuzz-sniff", "profile": "test"}`))
	f.Add([]byte("{}"))
	f.Add([]byte("---"))
	f.Add([]byte("{spec: routelab-spec/v1}"))
	f.Add([]byte("name: [unclosed\n"))
	f.Add([]byte("spec: routelab-spec/v1\nprofile: test\n"))
	f.Add([]byte(nil))
	// Bounds a JSON document must break as a YAML one does.
	f.Add([]byte(`{"spec": "routelab-spec/v1", "name": "fuzz-huge-seed", "profile": "test", "seed": 9007199254740993}`))
	f.Add([]byte("\n\t{\"spec\": \"routelab-spec/v1\", \"name\": \"fuzz-range\", \"profile\": \"test\", \"campaign\": {\"probes\": {\"min\": 0, \"max\": 3}}}"))
	// A JSON document followed by more bytes.
	f.Add([]byte(`{"spec": "routelab-spec/v1", "name": "trail", "profile": "test"} {"name": "other"} garbage`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxSpecBytes {
			// The handler 413s larger bodies before decoding; mirror the
			// cap so the fuzzer spends its budget on reachable inputs.
			return
		}
		sp, err := spec.Parse("fuzz request", body)
		if err != nil {
			return
		}
		if b := bytes.TrimLeft(body, " \t\r\n"); len(b) > 0 && b[0] == '{' && !json.Valid(body) {
			t.Fatalf("accepted a JSON body that is not one value: %q", body)
		}
		exp, err := sp.Expansion()
		if err != nil {
			return
		}
		st := NewStore(StoreConfig{})
		regErr := st.Register(exp, "fuzz")
		if (regErr == nil) != (exp.Name != "") {
			t.Fatalf("admissibility disagrees with name %q: register err %v", exp.Name, regErr)
		}
	})
}

// FuzzWhatIfRequest drives the routelab-whatif/v1 decode path of POST
// /v1/whatif — json.Unmarshal, WhatIfRequest.Validate, whatif.CompileAll
// against the test scenario's topology, whatif.CanonicalKey — with
// arbitrary bodies, seeded with the request documents whatif_test.go
// and cmd/routelabd's tests post plus one delta of each remaining kind.
// Properties:
//
//   - the pipeline never panics;
//   - an accepted document is stable under its own encoding: marshalled
//     and decoded again it compiles to the same canonical key, so the
//     response cache cannot file one request under two keys;
//   - a rejected document is a client error: the handler answers it
//     with a 400 error envelope (404 only when the document names a
//     prefix, which the handler resolves before compiling) and never
//     reaches evaluation.
func FuzzWhatIfRequest(f *testing.F) {
	srv, _ := newTestServer(f, Config{})
	topo, origin := srv.s.Topo, srv.s.Testbed.Origin
	m0, m1 := srv.s.Testbed.Muxes[0], srv.s.Testbed.Muxes[1%len(srv.s.Testbed.Muxes)]
	// A new_peering needs a pair the topology would accept a link
	// between (not adjacent, sharing a city): the first one mux 0 has.
	stranger := origin
	for _, a := range topo.ASNs() {
		if _, err := topo.ProposeLink(m0, a, topology.RelPeer); err == nil {
			stranger = a
			break
		}
	}
	for _, doc := range []string{
		`{"schema":"routelab-whatif/v1","delta":{"kind":"withdraw"}}`,
		`{"schema":"routelab-whatif/v1","deltas":[{"kind":"withdraw"},{"kind":"prepend","prepend":2}]}`,
		fmt.Sprintf(`{"schema":"routelab-whatif/v1","deltas":[
		{"kind":"withdraw"},
		{"kind":"prepend","prepend":2},
		{"kind":"poison","poisoned":[%q]}
	]}`, m0),
		fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"poison","poisoned":[%q,%q,%q]}}`, m0, m1, m0),
		fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"link_failure","a":%q,"b":%q}}`, m0, origin),
		fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"local_pref","at":%q,"from":%q,"pref":50}}`, m0, origin),
		fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"new_peering","a":%q,"b":%q,"rel":"peer"}}`, m0, stranger),
		fmt.Sprintf(`{"schema":"routelab-whatif/v1","prefix":%q,"delta":{"kind":"withdraw"}}`, srv.s.Testbed.Prefixes[0]),
		`{"schema":"routelab-whatif/v2","delta":{"kind":"withdraw"}}`,
		`nope`,
		`{"schema":"routelab-whatif/v1"}`,
		`{"schema":"routelab-whatif/v1","delta":{"kind":"withdraw"},"deltas":[{"kind":"withdraw"}]}`,
		`{"schema":"routelab-whatif/v1","delta":{"kind":"teleport"}}`,
		fmt.Sprintf(`{"schema":"routelab-whatif/v1","delta":{"kind":"poison","poisoned":[%q]}}`, origin),
		`{"schema":"routelab-whatif/v1","prefix":"zzz","delta":{"kind":"withdraw"}}`,
		`{"schema":"routelab-whatif/v1","prefix":"203.0.113.0/24","delta":{"kind":"withdraw"}}`,
	} {
		f.Add([]byte(doc))
	}
	compile := func(body []byte) (req WhatIfRequest, key string, err error) {
		if err = json.Unmarshal(body, &req); err != nil {
			return req, "", err
		}
		if err = req.Validate(); err != nil {
			return req, "", err
		}
		cds, err := whatif.CompileAll(req.All(), topo, origin)
		if err != nil {
			return req, "", err
		}
		return req, whatif.CanonicalKey(cds), nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxWhatIfBytes {
			return // the handler 413s these before decoding
		}
		req, key, err := compile(body)
		if err != nil {
			rec := httptest.NewRecorder()
			srv.serveWhatIf(&reply{w: rec}, httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(body)))
			if rec.Code != http.StatusBadRequest && !(rec.Code == http.StatusNotFound && req.Prefix != "") {
				t.Fatalf("rejected (%v) but the handler answered %d\n%s", err, rec.Code, rec.Body)
			}
			if e := checkEnvelope(t, rec.Body.String()); e.Kind != "error" {
				t.Fatalf("rejection is a %q envelope, want error\n%s", e.Kind, rec.Body)
			}
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		if _, key2, err := compile(again); err != nil || key2 != key {
			t.Fatalf("re-encoded document compiles to %q (err %v), original to %q\n%s", key2, err, key, again)
		}
	})
}
