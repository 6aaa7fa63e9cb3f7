package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load reads a spec file and parses it (YAML by default; JSON for
// .json files), recording the path as the spec's Source.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(path, data, formatOf(path))
	if err != nil {
		return nil, err
	}
	s.Source = filepath.ToSlash(path)
	return s, nil
}

// Parse decodes and validates a document from bytes. The pipeline, in
// order (DESIGN.md §13):
//
//  1. Parse the bytes into the generic document form (format is "yaml"
//     or "json"; the name labels parse errors).
//  2. Decode the document against the schema (unknown fields are
//     errors, never silently dropped).
//  3. Validate (see Spec.Validate).
func Parse(name string, data []byte, format string) (*Spec, error) {
	doc, err := parseDoc(name, data, format)
	if err != nil {
		return nil, err
	}
	s, err := decode(doc)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// formatOf picks the parser by extension.
func formatOf(path string) string {
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return "json"
	}
	return "yaml"
}

// parseDoc parses bytes into the generic document form.
func parseDoc(name string, data []byte, format string) (map[string]any, error) {
	switch format {
	case "json":
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			return nil, &ParseError{File: name, Msg: "invalid JSON: " + err.Error()}
		}
		doc, ok := normalizeJSON(v).(map[string]any)
		if !ok {
			return nil, &ParseError{File: name, Msg: "top level must be an object"}
		}
		return doc, nil
	case "yaml":
		return parseYAML(name, data)
	default:
		return nil, fmt.Errorf("spec: unknown format %q (have yaml, json)", format)
	}
}

// normalizeJSON rewrites json.Number into int64 when integral, float64
// otherwise, so both parsers feed the decoder identical shapes. Arrays
// are left as they are: no schema field takes one, so decode rejects
// them whatever they hold.
func normalizeJSON(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			t[k] = normalizeJSON(e)
		}
		return t
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return i
		}
		f, _ := t.Float64()
		return f
	default:
		return v
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
