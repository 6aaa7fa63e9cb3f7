// Command corpusgen regenerates the checked-in seed corpora for the
// native Go fuzz targets (internal/mrt FuzzRead, internal/service
// FuzzAdmitSpec). Seeds are derived from the packages' own encoders —
// and, for the admission target, from the real scenario corpus under
// scenarios/ — so they are valid by construction and cover every shape
// the decoders branch on, plus a few deliberately corrupted framings to
// seed the error paths. Deterministic: running it twice produces
// byte-identical corpora.
//
// Usage (from the repo root):
//
//	go run ./cmd/corpusgen
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"routelab/internal/asn"
	"routelab/internal/mrt"
	"routelab/internal/vantage"
)

// writeSeed stores one []byte seed in the go-fuzz corpus file format.
func writeSeed(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}

// writeAdmitSeed stores one FuzzAdmitSpec seed: the corpus format needs
// one line per fuzz argument (body, Content-Type, ?format=).
func writeAdmitSeed(dir, name string, body []byte, contentType, formatQ string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nstring(%q)\nstring(%q)\n",
		body, contentType, formatQ)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}

func mrtSeeds(dir string) {
	snaps := map[string]*vantage.Snapshot{
		"empty": {Epoch: 0},
		"entries": {
			Epoch: 3,
			Entries: []vantage.Entry{
				{Peer: 3356, Prefix: asn.NewPrefix(0xc6336400, 24), Path: []asn.ASN{3356, 174, 47065}},
				{Peer: 2914, Prefix: asn.NewPrefix(0x08000000, 6), Path: nil},
			},
		},
	}
	for name, s := range snaps {
		var buf bytes.Buffer
		if err := mrt.Write(&buf, s); err != nil {
			log.Fatal(err)
		}
		writeSeed(dir, "seed-"+name, buf.Bytes())
	}
	writeSeed(dir, "seed-bad-magic", []byte("MRTX\x00\x01\x00\x00\x00\x00\x00\x00"))
}

// admitSeeds seeds the fleet-admission fuzz target with the real
// scenario corpus (each spec under scenarios/, exactly as a client
// would POST it) plus the format-dispatch branches: explicit ?format=,
// Content-Type routing, the JSON sniff, and malformed documents that
// must error rather than panic.
func admitSeeds(dir string) {
	entries, err := os.ReadDir("scenarios")
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".yaml" {
			continue
		}
		body, err := os.ReadFile(filepath.Join("scenarios", e.Name()))
		if err != nil {
			log.Fatal(err)
		}
		name := e.Name()[:len(e.Name())-len(".yaml")]
		writeAdmitSeed(dir, "seed-corpus-"+name, body, "", "")
	}
	minimal := []byte("spec: routelab-spec/v1\nname: fuzz-seed\nprofile: test\n")
	writeAdmitSeed(dir, "seed-format-query", minimal, "", "yaml")
	writeAdmitSeed(dir, "seed-format-unknown", minimal, "", "toml")
	writeAdmitSeed(dir, "seed-json-content-type",
		[]byte(`{"spec": "routelab-spec/v1", "name": "fuzz-json", "profile": "test"}`),
		"application/json", "")
	writeAdmitSeed(dir, "seed-json-sniffed",
		[]byte(`  {"spec": "routelab-spec/v1", "name": "fuzz-sniff", "profile": "test"}`),
		"", "")
	writeAdmitSeed(dir, "seed-yaml-invalid", []byte("name: [unclosed\n"), "", "")
	writeAdmitSeed(dir, "seed-nameless", []byte("spec: routelab-spec/v1\nprofile: test\n"), "", "")
	writeAdmitSeed(dir, "seed-empty", nil, "", "")
}

func main() {
	mrtSeeds("internal/mrt/testdata/fuzz/FuzzRead")
	admitSeeds("internal/service/testdata/fuzz/FuzzAdmitSpec")
	fmt.Println("corpora written under internal/{mrt,service}/testdata/fuzz/")
}
