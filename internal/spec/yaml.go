package spec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// This file is a deliberately small YAML-subset parser, written so the
// module stays dependency-free (go.mod has no requires, and the
// container bakes in only the toolchain). The subset covers what a
// scenario document needs and nothing else:
//
//   - block mappings nested by indentation (spaces only; tabs are an
//     error)
//   - flow mappings ("{min: 1, max: 2}") on a single line
//   - scalars: null/~, true/false, integers, floats, single- and
//     double-quoted strings, and plain strings
//   - '#' comments (full-line and trailing) and blank lines
//
// Sequences (block "- item" and flow "[a, b]"), anchors, aliases,
// multi-document streams, and multi-line strings are rejected with a
// positioned ParseError: no schema field takes a list. SCENARIOS.md
// documents the subset for spec authors.

// yamlLine is one significant (non-blank, non-comment) input line.
type yamlLine struct {
	num    int // 1-based source line
	indent int
	text   string // content with indentation and trailing comment removed
}

// parseYAML parses a document into the generic form decode reads:
// map[string]any and scalar values.
func parseYAML(file string, data []byte) (map[string]any, error) {
	lines, err := yamlLines(file, data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return map[string]any{}, nil
	}
	p := &yamlParser{file: file, lines: lines}
	doc, err := p.parseMap(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, p.errAt(l.num, fmt.Sprintf("unexpected indentation (%d spaces)", l.indent))
	}
	return doc, nil
}

// yamlLines splits, de-comments, and measures indentation.
func yamlLines(file string, data []byte) ([]yamlLine, error) {
	var out []yamlLine
	for num, raw := range strings.Split(string(data), "\n") {
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return nil, &ParseError{File: file, Line: num + 1, Msg: "tab in indentation (use spaces)"}
		}
		text := strings.TrimRight(stripComment(raw[indent:]), " \t\r")
		if text == "" {
			continue
		}
		out = append(out, yamlLine{num: num + 1, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing "#..." comment, respecting quotes. A
// '#' only starts a comment at the line start or after whitespace
// (YAML's rule, so "host#3" stays intact).
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

type yamlParser struct {
	file  string
	lines []yamlLine
	pos   int
}

func (p *yamlParser) errAt(line int, msg string) error {
	return &ParseError{File: p.file, Line: line, Msg: msg}
}

// parseMap consumes a block mapping whose keys sit at exactly indent.
func (p *yamlParser) parseMap(indent int) (map[string]any, error) {
	out := map[string]any{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break // end of this block
		}
		if l.indent > indent {
			return nil, p.errAt(l.num, "unexpected indentation")
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, p.errAt(l.num, errSequence)
		}
		key, rest, err := splitKey(l.text)
		if err != nil {
			return nil, p.errAt(l.num, err.Error())
		}
		if _, dup := out[key]; dup {
			return nil, p.errAt(l.num, fmt.Sprintf("duplicate key %q", key))
		}
		p.pos++
		if rest != "" {
			v, err := parseScalar(rest)
			if err != nil {
				return nil, p.errAt(l.num, err.Error())
			}
			out[key] = v
			continue
		}
		// No inline value: a more-indented nested mapping, or null.
		if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			v, err := p.parseMap(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out[key] = v
		} else {
			out[key] = nil
		}
	}
	return out, nil
}

// errSequence is the message for either sequence form.
const errSequence = "sequences are outside the supported YAML subset (no spec field takes a list)"

// splitKey splits "key: rest" (or "key:") at the first unquoted colon.
func splitKey(s string) (key, rest string, err error) {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == ':' && (i+1 == len(s) || s[i+1] == ' '):
			key = strings.TrimSpace(s[:i])
			if key == "" {
				return "", "", fmt.Errorf("empty mapping key")
			}
			if k, ok := unquote(key); ok {
				key = k
			}
			return key, strings.TrimSpace(s[i+1:]), nil
		}
	}
	return "", "", fmt.Errorf("expected \"key: value\", got %q", s)
}

// parseScalar parses an inline value: scalar or flow mapping.
func parseScalar(s string) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "["):
		return nil, errors.New(errSequence)
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, fmt.Errorf("unterminated flow mapping %q", s)
		}
		items, err := splitFlow(s[1 : len(s)-1])
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, len(items))
		for _, it := range items {
			key, rest, err := splitKey(it)
			if err != nil {
				return nil, err
			}
			if rest == "" {
				return nil, fmt.Errorf("flow mapping entry %q needs a value", it)
			}
			if _, dup := out[key]; dup {
				return nil, fmt.Errorf("duplicate key %q", key)
			}
			v, err := parseScalar(rest)
			if err != nil {
				return nil, err
			}
			out[key] = v
		}
		return out, nil
	}
	if v, ok := unquote(s); ok {
		return v, nil
	}
	switch s {
	case "null", "~", "":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	if strings.ContainsAny(s, "&*|>%@`") {
		return nil, fmt.Errorf("unsupported YAML syntax in %q", s)
	}
	return s, nil // plain string
}

// unquote handles single- and double-quoted scalars.
func unquote(s string) (string, bool) {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		if u, err := strconv.Unquote(s); err == nil {
			return u, true
		}
		return s[1 : len(s)-1], true
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), true
	}
	return "", false
}

// splitFlow splits a flow body on top-level commas, respecting nested
// braces and quotes. Empty bodies yield no items.
func splitFlow(s string) ([]string, error) {
	var out []string
	depth := 0
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '{':
			depth++
		case c == '}':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced braces in %q", s)
			}
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if quote != 0 || depth != 0 {
		return nil, fmt.Errorf("unterminated flow syntax in %q", s)
	}
	if last := strings.TrimSpace(s[start:]); last != "" || len(out) > 0 {
		out = append(out, last)
	}
	// Drop a single empty trailing item ("{}" or "{a: 1, }").
	if len(out) > 0 && out[len(out)-1] == "" {
		out = out[:len(out)-1]
	}
	return out, nil
}
