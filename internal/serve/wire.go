package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The write body is the daemon's hottest wire format: every write
// request carries one, and an address write carries thousands of
// numbers. Both directions handle its canonical forms directly.
// encoding/json remains the specification — appendWriteRequest emits
// exactly json.Marshal's bytes, and decodeWriteRequest hands every body
// its direct parser declines to json.Unmarshal unchanged — so any valid
// JSON a client sends is still accepted, with encoding/json's errors for
// the invalid rest.

// appendWriteRequest appends json.Marshal(req)'s bytes to dst.
func appendWriteRequest(dst []byte, req writeRequest) []byte {
	dst = append(dst, '{')
	if req.Count != 0 {
		dst = append(dst, `"count":`...)
		dst = strconv.AppendUint(dst, req.Count, 10)
	}
	if len(req.Addrs) > 0 {
		if req.Count != 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"addrs":[`...)
		for i, a := range req.Addrs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, a, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// decodeWriteRequest decodes a write body: the canonical forms through
// parseWriteBody, anything else through json.Unmarshal.
func decodeWriteRequest(body []byte) (writeRequest, error) {
	if req, ok := parseWriteBody(body); ok {
		return req, nil
	}
	var req writeRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// parseWriteBody decodes the two canonical write bodies,
// {"count":N} and {"addrs":[a,b,...]}, with JSON whitespace allowed
// between tokens. Numbers must be plain decimal uint64s without leading
// zeros. It reports false for anything else — a second or duplicate
// key, an empty array, escapes, null, a sign, a fraction, an overflow,
// trailing bytes — and never for a body json.Unmarshal would decode
// differently.
func parseWriteBody(b []byte) (writeRequest, bool) {
	var req writeRequest
	i, ok := punct(b, 0, '{')
	if !ok {
		return req, false
	}
	switch i = skipSpace(b, i); {
	case hasKey(b[i:], `"count"`):
		if i, ok = punct(b, i+len(`"count"`), ':'); !ok {
			return req, false
		}
		if req.Count, i, ok = parseUint(b, i); !ok {
			return req, false
		}
	case hasKey(b[i:], `"addrs"`):
		if i, ok = punct(b, i+len(`"addrs"`), ':'); !ok {
			return req, false
		}
		if i, ok = punct(b, i, '['); !ok {
			return req, false
		}
		// Canonical elements are at least two bytes ("0,") apart, so
		// the comma count sizes the slice without trusting a body of
		// bare commas.
		rest := b[i:]
		addrs := make([]uint64, 0, min(bytes.Count(rest, comma), len(rest)/2)+1)
		for {
			var a uint64
			if a, i, ok = parseUint(b, i); !ok {
				return req, false
			}
			addrs = append(addrs, a)
			i = skipSpace(b, i)
			if i < len(b) && b[i] == ']' {
				i++
				break
			}
			if i == len(b) || b[i] != ',' {
				return req, false
			}
			i++
		}
		req.Addrs = addrs
	default:
		return req, false
	}
	if i, ok = punct(b, i, '}'); !ok {
		return req, false
	}
	return req, skipSpace(b, i) == len(b)
}

var comma = []byte{','}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// punct skips whitespace from i and then the byte c, returning the
// index after it and whether c was there.
func punct(b []byte, i int, c byte) (int, bool) {
	i = skipSpace(b, i)
	if i == len(b) || b[i] != c {
		return i, false
	}
	return i + 1, true
}

// hasKey reports whether b starts with the quoted key.
func hasKey(b []byte, quoted string) bool {
	return len(b) >= len(quoted) && string(b[:len(quoted)]) == quoted
}

// parseUint skips whitespace from i and parses a decimal uint64
// without a leading zero, returning the index after it. It fails on
// overflow.
func parseUint(b []byte, i int) (uint64, int, bool) {
	i = skipSpace(b, i)
	start := i
	var v uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		var ok bool
		if v, ok = appendDigit(v, b[i]); !ok {
			return 0, i, false
		}
	}
	n := i - start
	return v, i, n > 0 && (n == 1 || b[start] != '0')
}

// appendDigit returns v*10 + (c-'0') for a decimal digit c, reporting
// false when that overflows a uint64.
func appendDigit(v uint64, c byte) (uint64, bool) {
	const cutoff = math.MaxUint64 / 10
	d := uint64(c - '0')
	if v >= cutoff && (v > cutoff || d > math.MaxUint64%10) {
		return 0, false
	}
	return v*10 + d, true
}
