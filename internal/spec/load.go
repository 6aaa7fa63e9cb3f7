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

// Load reads a spec file and parses it, recording the path as the
// spec's Source.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(path, data)
	if err != nil {
		return nil, err
	}
	s.Source = filepath.ToSlash(path)
	return s, nil
}

// Files lists the spec documents (*.yaml, *.yml, *.json) at the top
// level of dir, sorted: the corpus of scengen list and of routelabd
// -scenario-dir. Subdirectories, such as a corpus's goldens, are not
// read.
func Files(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		ext := strings.ToLower(filepath.Ext(e.Name()))
		if !e.IsDir() && (ext == ".yaml" || ext == ".yml" || ext == ".json") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// Parse decodes and validates a document from bytes. The pipeline, in
// order (DESIGN.md §13):
//
//  1. Parse the bytes into the generic document form: JSON when the
//     first non-blank byte is '{', YAML otherwise (the name labels
//     parse errors).
//  2. Decode the document against scenario.Fields (unknown fields are
//     errors, never silently dropped).
//  3. Validate (see Spec.Validate).
func Parse(name string, data []byte) (*Spec, error) {
	doc, err := parseDoc(name, data)
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

// parseDoc parses bytes into the generic document form, choosing the
// parser from the document's first non-blank byte. A JSON document is
// one object: only whitespace may follow it.
func parseDoc(name string, data []byte) (map[string]any, error) {
	if b := bytes.TrimLeft(data, " \t\r\n"); len(b) == 0 || b[0] != '{' {
		return parseYAML(name, data)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, &ParseError{File: name, Msg: "invalid JSON: " + err.Error()}
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return nil, &ParseError{File: name, Msg: "invalid JSON: bytes after the document's object"}
	}
	normalizeJSON(doc)
	return doc, nil
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
