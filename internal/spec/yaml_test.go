package spec

import (
	"reflect"
	"strings"
	"testing"
)

func TestYAMLSubset(t *testing.T) {
	doc := `
# full-line comment
spec: routelab-spec/v1
name: demo            # trailing comment
description: "a # not-a-comment inside quotes"
seed: -7
profile: 'test'
topology:
  scale: 0.5
  tier1s: 12
  large_isps: {min: 10, max: 20}
policy:
  hybrid_link_rate: 0.05
`
	got, err := parseYAML("demo.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"spec":        "routelab-spec/v1",
		"name":        "demo",
		"description": "a # not-a-comment inside quotes",
		"seed":        int64(-7),
		"profile":     "test",
		"topology": map[string]any{
			"scale":      0.5,
			"tier1s":     int64(12),
			"large_isps": map[string]any{"min": int64(10), "max": int64(20)},
		},
		"policy": map[string]any{"hybrid_link_rate": 0.05},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed doc mismatch:\n got %#v\nwant %#v", got, want)
	}
}

// No spec field takes a list, so a block sequence is a parse error on
// its first item's line, nested under its key or at the key's own
// indent.
func TestYAMLBlockSequence(t *testing.T) {
	for _, doc := range []string{"a: 1\nxs:\n  - first\n  - second\n", "a: 1\nxs:\n- first\n- second\n"} {
		_, err := parseYAML("seq.yaml", []byte(doc))
		pe, ok := err.(*ParseError)
		if !ok || pe.Line != 3 || !strings.Contains(pe.Msg, "sequences are outside") {
			t.Errorf("%q: err = %v, want a sequence ParseError on line 3", doc, err)
		}
	}
}

func TestYAMLScalars(t *testing.T) {
	cases := map[string]any{
		"v: null":      nil,
		"v: ~":         nil,
		"v:":           nil,
		"v: true":      true,
		"v: false":     false,
		"v: 42":        int64(42),
		"v: -3":        int64(-3),
		"v: 0.25":      0.25,
		"v: 1e3":       1000.0,
		"v: plain":     "plain",
		`v: "qu#oted"`: "qu#oted",
		"v: 'it''s'":   "it's",
	}
	for in, want := range cases {
		doc, err := parseYAML("scalar.yaml", []byte(in))
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		got := doc["v"]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: got %#v (%T), want %#v", in, got, got, want)
		}
	}
}

func TestYAMLErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantMsg string
		wantLine           int
	}{
		{"tab", "a: 1\n\tb: 2\n", "tab in indentation", 2},
		{"dup", "a: 1\na: 2\n", "duplicate key", 2},
		{"seq-of-maps", "xs:\n  - k: v\n", "sequences are outside", 2},
		{"flow-seq", "a: 1\nxs: [a, b]\n", "sequences are outside", 2},
		{"flow-seq-in-range", "a: {min: [1], max: 2}\n", "sequences are outside", 1},
		{"no-colon", "just a line\n", `expected "key: value"`, 1},
		{"bad-indent", "a:\n  b: 1\n    c: 2\n", "unexpected indentation", 3},
		{"anchor", "a: &x 1\n", "unsupported YAML syntax", 1},
		{"unterminated-flow", "a: {min: 1\n", "unterminated flow mapping", 1},
	}
	for _, tc := range cases {
		_, err := parseYAML(tc.name+".yaml", []byte(tc.doc))
		if err == nil {
			t.Errorf("%s: parse accepted %q", tc.name, tc.doc)
			continue
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%s: error is %T, want *ParseError: %v", tc.name, err, err)
			continue
		}
		if !strings.Contains(pe.Msg, tc.wantMsg) {
			t.Errorf("%s: message %q does not contain %q", tc.name, pe.Msg, tc.wantMsg)
		}
		if pe.Line != tc.wantLine {
			t.Errorf("%s: line %d, want %d", tc.name, pe.Line, tc.wantLine)
		}
	}
}
