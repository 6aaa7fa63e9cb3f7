package spec

import (
	"slices"
	"strings"

	"routelab/internal/scenario"
)

// known holds every document path scenario.Fields lists.
var known = func() map[string]bool {
	paths := make(map[string]bool, len(scenario.Fields))
	for _, f := range scenario.Fields {
		paths[f.Path] = true
	}
	return paths
}()

// topLevel lists a document's top-level keys in document order: its
// four strings, then the table's top-level fields and sections.
var topLevel = func() []string {
	keys := []string{"spec", "name", "description", "profile"}
	for _, f := range scenario.Fields {
		if key, _, _ := strings.Cut(f.Path, "."); !slices.Contains(keys, key) {
			keys = append(keys, key)
		}
	}
	return keys
}()

// decode maps a parsed generic document onto a Spec. Unknown top-level
// keys, unknown section fields, and wrongly-typed values are all
// errors — a spec that parses is either fully understood or rejected,
// never silently half-applied. Every problem is reported (joined), so
// an author fixes a document in one round trip.
func decode(doc map[string]any) (*Spec, error) {
	s := &Spec{values: map[string]*Num{}}
	strs := map[string]*string{"spec": &s.Version, "name": &s.Name, "description": &s.Description, "profile": &s.Profile}
	var errs []error
	bad := func(path string, value any, reason string) {
		errs = append(errs, &FieldError{Path: path, Value: value, Reason: reason})
	}
	num := func(path string, v any) {
		if n, err := parseNum(path, v); err != nil {
			errs = append(errs, err)
		} else {
			s.values[path] = n
		}
	}
	for _, key := range sortedKeys(doc) {
		v := doc[key]
		if dst, ok := strs[key]; ok {
			if *dst, ok = v.(string); !ok {
				bad(key, v, "must be a string")
			}
			continue
		}
		if !slices.Contains(topLevel, key) {
			bad(key, v, "unknown field (top-level fields: "+strings.Join(topLevel, ", ")+")")
			continue
		}
		if known[key] {
			num(key, v)
			continue
		}
		sec, ok := v.(map[string]any)
		if !ok {
			bad(key, v, "must be a mapping")
			continue
		}
		for _, k := range sortedKeys(sec) {
			path := key + "." + k
			if !known[path] {
				bad(path, sec[k], "unknown field (see SCENARIOS.md for the field reference)")
				continue
			}
			num(path, sec[k])
		}
	}
	if err := joinErrors(errs); err != nil {
		return nil, err
	}
	return s, nil
}

// parseNum accepts a numeric literal or a {min, max} range mapping.
func parseNum(path string, v any) (*Num, error) {
	if i, ok := v.(int64); ok && (i > 1<<53 || i < -1<<53) {
		// Refused, not rounded: a seed that became its float64
		// neighbour would build another world.
		return nil, &FieldError{Path: path, Value: v,
			Reason: "lies beyond ±2^53, where a document number stops being exact"}
	}
	if f, ok := asFloat(v); ok {
		return &Num{Literal: f}, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, &FieldError{Path: path, Value: v,
			Reason: "must be a number or a {min, max} range"}
	}
	for _, k := range sortedKeys(m) {
		if k != "min" && k != "max" {
			return nil, &FieldError{Path: path + "." + k, Value: m[k],
				Reason: "ranges take exactly the keys min and max"}
		}
	}
	mn, okMin := asFloat(m["min"])
	mx, okMax := asFloat(m["max"])
	if !okMin || !okMax {
		return nil, &FieldError{Path: path, Value: v,
			Reason: "a range needs numeric min and max"}
	}
	return &Num{Min: mn, Max: mx, Ranged: true}, nil
}

// asFloat widens any parsed numeric to float64.
func asFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}
