package spec

import (
	"fmt"
	"math"
	"strings"
)

// decode maps a parsed generic document onto a Spec. Unknown top-level
// keys, unknown section fields, and wrongly-typed values are all
// errors — a spec that parses is either fully understood or rejected,
// never silently half-applied. Every problem is reported (joined), so
// an author fixes a document in one round trip.
func decode(doc map[string]any) (*Spec, error) {
	s := &Spec{values: map[string]*Num{}}
	var errs []error
	bad := func(path string, value any, reason string) {
		errs = append(errs, &FieldError{Path: path, Value: value, Reason: reason})
	}

	sectionSet := make(map[string]bool, len(Sections))
	for _, sec := range Sections {
		sectionSet[sec] = true
	}
	for _, key := range sortedKeys(doc) {
		v := doc[key]
		switch key {
		case "spec":
			s.Version, _ = v.(string)
			if _, ok := v.(string); !ok {
				bad("spec", v, "must be a string")
			}
		case "name":
			s.Name, _ = v.(string)
			if _, ok := v.(string); !ok {
				bad("name", v, "must be a string")
			}
		case "description":
			s.Description, _ = v.(string)
			if _, ok := v.(string); !ok {
				bad("description", v, "must be a string")
			}
		case "profile":
			s.Profile, _ = v.(string)
			if _, ok := v.(string); !ok {
				bad("profile", v, "must be a string")
			}
		case "seed":
			if i, ok := asInt64(v); ok {
				s.Seed = &i
			} else {
				bad("seed", v, "must be an integer")
			}
		case "workers":
			if i, ok := asInt64(v); ok {
				w := int(i)
				s.Workers = &w
			} else {
				bad("workers", v, "must be an integer")
			}
		default:
			if !sectionSet[key] {
				bad(key, v, fmt.Sprintf("unknown field (top-level fields: spec, name, description, "+
					"profile, seed, workers, %s)", strings.Join(Sections, ", ")))
				continue
			}
			sec, ok := v.(map[string]any)
			if !ok {
				bad(key, v, "must be a mapping")
				continue
			}
			errs = append(errs, decodeSection(s, key, sec)...)
		}
	}
	if err := joinErrors(errs); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeSection decodes one section's fields against the schema index.
func decodeSection(s *Spec, section string, sec map[string]any) []error {
	var errs []error
	for _, key := range sortedKeys(sec) {
		path := section + "." + key
		if _, known := schemaIndex[path]; !known {
			errs = append(errs, &FieldError{Path: path, Value: sec[key],
				Reason: "unknown field (see SCENARIOS.md for the field reference)"})
			continue
		}
		n, err := parseNum(path, sec[key])
		if err != nil {
			errs = append(errs, err)
			continue
		}
		s.values[path] = n
	}
	return errs
}

// parseNum accepts a numeric literal or a {min, max} range mapping.
func parseNum(path string, v any) (*Num, error) {
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

// asInt64 accepts integers and integral floats.
func asInt64(v any) (int64, bool) {
	switch t := v.(type) {
	case int64:
		return t, true
	case float64:
		if t == math.Trunc(t) {
			return int64(t), true
		}
	}
	return 0, false
}
