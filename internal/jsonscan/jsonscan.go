// Package jsonscan holds the byte-level JSON scanning primitives behind
// the serving stack's allocation-free line decoders: the shard's event
// decoder (internal/serve) and the router's point scanner
// (internal/route).
//
// Every function takes the input and a start offset and returns the
// offset just past what it consumed, or -1 when the input there is not
// something it fully understands. A -1 means "undecided", not
// "invalid": callers fall back to encoding/json, which then accepts the
// input or rejects it with its own error text. So the scanners may be
// conservative — escaped or non-ASCII keys, deep nesting — but must
// never accept what encoding/json rejects.
package jsonscan

import "strconv"

// maxDepth bounds nesting in Value; deeper values are left undecided
// (encoding/json's own limit is far higher).
const maxDepth = 64

// Space returns the offset of the first non-whitespace byte at or after
// i, using JSON's whitespace set.
func Space(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// Line scans a line holding exactly one JSON object and nothing after
// it but whitespace. member is called once per key, in input order,
// with the key's bytes and the offset of its value; it returns the
// offset just past the value, or -1 to give up. Keys must be plain
// ASCII without escapes (see object). Line reports whether the whole
// line was decided.
func Line(b []byte, member func(key []byte, i int) int) bool {
	i := object(b, Space(b, 0), member)
	return i >= 0 && Space(b, i) == len(b)
}

// object scans the object starting at b[i]. Keys holding an escape, a
// control byte or a non-ASCII byte leave the object undecided:
// encoding/json matches keys after unescaping and Unicode case folding,
// and the cheap ASCII match in FoldEq would disagree with it there.
func object(b []byte, i int, member func(key []byte, i int) int) int {
	if i >= len(b) || b[i] != '{' {
		return -1
	}
	i = Space(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return -1
		}
		start := i + 1
		for i = start; i < len(b) && b[i] != '"'; i++ {
			if c := b[i]; c < 0x20 || c == '\\' || c >= 0x80 {
				return -1
			}
		}
		if i >= len(b) {
			return -1
		}
		key := b[start:i]
		i = Space(b, i+1)
		if i >= len(b) || b[i] != ':' {
			return -1
		}
		if i = member(key, Space(b, i+1)); i < 0 {
			return -1
		}
		if i = Space(b, i); i >= len(b) {
			return -1
		}
		switch b[i] {
		case '}':
			return i + 1
		case ',':
			i = Space(b, i+1)
		default:
			return -1
		}
	}
}

// Array scans the array starting at b[i], calling elem with the offset
// of each element; elem returns the offset just past it, or -1.
func Array(b []byte, i int, elem func(i int) int) int {
	if i >= len(b) || b[i] != '[' {
		return -1
	}
	i = Space(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		if i = elem(i); i < 0 {
			return -1
		}
		if i = Space(b, i); i >= len(b) {
			return -1
		}
		switch b[i] {
		case ']':
			return i + 1
		case ',':
			i = Space(b, i+1)
		default:
			return -1
		}
	}
}

// Value skips one JSON value of any type starting at b[i], checking it
// as strictly as encoding/json does.
func Value(b []byte, i int) int { return value(b, i, 0) }

func value(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; {
	case c == '"':
		return str(b, i)
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return -1
		}
		if c == '[' {
			return Array(b, i, func(j int) int { return value(b, j, depth+1) })
		}
		return object(b, i, func(_ []byte, j int) int { return value(b, j, depth+1) })
	case c == 't':
		return literal(b, i, "true")
	case c == 'f':
		return literal(b, i, "false")
	case c == 'n':
		return literal(b, i, "null")
	default:
		return number(b, i)
	}
}

func literal(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// str skips the string starting at b[i]: no raw control bytes, and
// only the escapes JSON defines. Other bytes pass unchecked, as in
// encoding/json, which does not reject invalid UTF-8.
func str(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i++; i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !isHex(h) {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number skips the number starting at b[i] under JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. The caller checks
// that a delimiter follows.
func number(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return -1
		}
	}
	return i
}

// digits skips one or more decimal digits.
func digits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// Float parses the number at b[i] into a float64 exactly as
// encoding/json does (strconv.ParseFloat on the literal). Out-of-range
// literals are left undecided: encoding/json rejects them.
func Float(b []byte, i int) (float64, int) {
	end := number(b, i)
	if end < 0 {
		return 0, -1
	}
	// The conversion does not escape, so short literals stay on the stack.
	v, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return 0, -1
	}
	return v, end
}

// Int parses the number at b[i] into an integer of the given bit size
// exactly as encoding/json does: fractions, exponents and overflow
// leave it undecided.
func Int(b []byte, i int, bitSize int) (int64, int) {
	end := number(b, i)
	if end < 0 {
		return 0, -1
	}
	v, err := strconv.ParseInt(string(b[i:end]), 10, bitSize)
	if err != nil {
		return 0, -1
	}
	return v, end
}

// FoldEq reports whether an ASCII key names the field with the given
// lower-case ASCII name under encoding/json's key matching, which folds
// ASCII letters' case.
func FoldEq(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}
