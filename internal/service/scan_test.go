package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzScanJSON holds scanValue to json.Valid on arbitrary bytes, seeded
// with one served body of every envelope kind and the grammar's corners,
// the nesting limit's among them: a document is valid exactly when
// scanValue reads one value from its start and nothing but whitespace
// follows.
func FuzzScanJSON(f *testing.F) {
	for _, body := range servedBodies(f) {
		f.Add(body)
	}
	for _, doc := range []string{
		``, ` `, `0`, `-0`, `01`, `-`, `1.`, `1.5`, `.5`, `1e`, `1e+`, `1E-07`, `-12.5e3`, `2x`,
		`true`, `tru`, `truex`, `false`, `null`, `nul`, ` null `,
		`""`, `"a\"b"`, `"\/\b\f\n\r\t\\"`, `"é"`, `"\u00G9"`, `"\u12"`, `"\x"`, "\"\t\"", "\"\xff\xfe\"", `"open`,
		`[]`, `[ ]`, `[1,]`, `[,1]`, `[1 2]`, `[[[]]]`, `[[]`, `]`,
		`{}`, `{ }`, `{"a":1}`, `{"a":1,}`, `{"a" : [1, {"b": null}] }`, `{1:2}`, `{"a"}`, `{"a":}`, `{"a":1 "b":2}`, `{"a":1]`,
		`{} {}`, "[1]\n",
	} {
		f.Add([]byte(doc))
	}
	for _, depth := range []int{maxNesting, maxNesting + 1} {
		f.Add([]byte(strings.Repeat("[", depth) + strings.Repeat("]", depth)))
		f.Add([]byte(strings.Repeat(`{"a":`, depth) + "0" + strings.Repeat("}", depth)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		end := scanValue(b, 0, maxNesting)
		if got, want := end >= 0 && skipSpace(b, end) == len(b), json.Valid(b); got != want {
			t.Fatalf("scanned valid %v (end %d), json.Valid %v\n%q", got, end, want, b)
		}
	})
}
