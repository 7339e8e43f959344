package trace

import (
	"bytes"
	"encoding/json"
)

// Codes is an array of wire state codes (see StateCode). It encodes as a
// plain JSON number array, like []int8. Decoding parses the shape every
// client sends — '[', comma-separated integers in [-128, 127], ']', with
// optional whitespace — in one pass without reflection, into a slice of
// exactly the decoded length. Any other input (null, null elements,
// fractions, exponents, strings, out-of-range numbers) is decoded by
// encoding/json as a []int8, so every accepted value, result and error is
// the one a plain []int8 field gives.
//
// One difference stays: encoding/json stops at the first error an
// Unmarshaler returns, while for a plain []int8 it keeps going and
// reports its first error. A body with an earlier error (an unknown
// field, a mistyped value) and a bad state-code array therefore reports
// the array's error instead of the earlier one.
type Codes []int8

// UnmarshalJSON implements json.Unmarshaler.
func (c *Codes) UnmarshalJSON(b []byte) error {
	if out, ok := parseCodes(b); ok {
		*c = out
		return nil
	}
	return json.Unmarshal(b, (*[]int8)(c))
}

// parseCodes is the fast path of Codes.UnmarshalJSON; ok is false when b
// is not a plain array of in-range integers.
func parseCodes(b []byte) (out Codes, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '[' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return Codes{}, skipSpace(b, i+1) == len(b)
	}
	// Only integers get here, so every comma separates two elements.
	out = make(Codes, bytes.Count(b[i:], []byte{','})+1)
	for k := range out {
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		start := i
		n := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			n = n*10 + int(b[i]-'0')
			if n > 128 {
				return nil, false
			}
		}
		// JSON forbids an empty number and leading zeros.
		if i == start || (b[start] == '0' && i-start > 1) {
			return nil, false
		}
		if neg {
			n = -n
		}
		if n > 127 {
			return nil, false
		}
		out[k] = int8(n)
		i = skipSpace(b, i)
		want := byte(',')
		if k == len(out)-1 {
			want = ']'
		}
		if i == len(b) || b[i] != want {
			return nil, false
		}
		i = skipSpace(b, i+1)
	}
	return out, i == len(b)
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i, by JSON's definition of whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
