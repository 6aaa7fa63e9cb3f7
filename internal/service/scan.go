package service

// maxNesting is how deep arrays and objects may nest, the envelope
// itself included: encoding/json's limit, so that the scan and the
// decoder refuse the same documents.
const maxNesting = 10000

// scanValue reads one JSON value (RFC 8259) that starts at b[i], after
// optional whitespace, with arrays and objects nested at most maxDepth
// deep. It returns the index just past the value, or -1 if b does not
// hold one there. It accepts exactly what encoding/json's scanner
// accepts, invalid UTF-8 inside strings included (FuzzScanJSON holds it
// to json.Valid).
func scanValue(b []byte, i, maxDepth int) int {
	var buf [64]bool
	open := buf[:0] // one entry per open container: true for an object
	for {
		// A value starts at i.
		if i = skipSpace(b, i); i == len(b) {
			return -1
		}
		switch c := b[i]; c {
		case '{', '[':
			if len(open) == maxDepth {
				return -1
			}
			obj := c == '{'
			if i = skipSpace(b, i+1); i < len(b) && b[i] == closer(obj) {
				i++
				break
			}
			open = append(open, obj)
			if obj {
				i = scanKey(b, i)
			}
			if i < 0 {
				return -1
			}
			continue
		case '"':
			i = scanString(b, i)
		case 't':
			i = scanLiteral(b, i, "true")
		case 'f':
			i = scanLiteral(b, i, "false")
		case 'n':
			i = scanLiteral(b, i, "null")
		default:
			i = scanNumber(b, i)
		}
		if i < 0 {
			return -1
		}
		// The value ends at i: close every container it completes, up to
		// the comma before the next value.
		for {
			if len(open) == 0 {
				return i
			}
			if i = skipSpace(b, i); i == len(b) {
				return -1
			}
			obj := open[len(open)-1]
			if b[i] == ',' {
				if i++; obj {
					i = scanKey(b, skipSpace(b, i))
				}
				break
			}
			if b[i] != closer(obj) {
				return -1
			}
			open = open[:len(open)-1]
			i++
		}
		if i < 0 {
			return -1
		}
	}
}

func closer(obj bool) byte {
	if obj {
		return '}'
	}
	return ']'
}

func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return i
}

// scanKey reads an object member's name and its colon from b[i]; it
// returns the index past the colon, or -1.
func scanKey(b []byte, i int) int {
	if i == len(b) || b[i] != '"' {
		return -1
	}
	if i = scanString(b, i); i < 0 {
		return -1
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return -1
	}
	return i + 1
}

// plain marks the bytes a string holds as they are: everything but the
// quote, the backslash and the control characters.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString reads the string whose opening quote is b[i].
func scanString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		if plain[b[i]] {
			continue
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return -1
				}
				i += 4
			default:
				return -1
			}
		default: // a control character
			return -1
		}
	}
	return -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanNumber reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? from
// b[i].
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		i = digits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return -1
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1
		}
		i = digits(b, i)
	}
	return i
}

// digits returns the index past the run of digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
