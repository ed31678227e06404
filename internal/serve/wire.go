package serve

// The request/response codec of /invoke and /batch: one pass over the body,
// no reflection.  A request is a JSON object whose one large member is
// "input", an array of int64 words; a response is the same with "output".
// encoding/json walks such a body three times (validate, decode through
// reflection, regrow the slice by doubling) and was 80% of a 65536-word
// request's service time.  decodeRequest scans the envelope by hand, counts
// the separators of "input" so the words are allocated once at their exact
// size, and parses digits straight into them; appendResponse is
// strconv.AppendInt into a caller-supplied buffer.
//
// The grammar accepted is what json.Unmarshal into a Request accepts (pinned
// by FuzzDecodeRequest with encoding/json as the oracle): keys match
// case-folded, the last duplicate wins, unknown members are skipped but must
// be valid JSON, null leaves a scalar as it was and makes "input" absent,
// "input":[] is an explicit empty payload.  The one narrowing: a null
// *element* of "input" is refused (errNullWord) where encoding/json keeps
// whatever an earlier duplicate left at that index.  Strings that need
// unquoting (escapes, non-ASCII) take encoding/json's own string decoder —
// they are short and cold.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// errNullWord refuses `"input":[…,null,…]`.
var errNullWord = errors.New(`null element in "input"`)

// maxDepth is encoding/json's nesting limit, kept so that what is accepted
// does not depend on which decoder read it.
const maxDepth = 10000

// syntaxErr describes what stands at b[i] where want was expected.
func syntaxErr(b []byte, i int, want string) error {
	if i >= len(b) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", b[i], i, want)
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// hasLit reports whether the literal lit stands at b[i].
func hasLit(b []byte, i int, lit string) bool {
	return len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

// decodeRequest decodes the JSON value at the start of body (leading white
// space allowed) into *req and returns how many bytes it took.  What follows
// the value is the caller's business: /batch reads the next request there,
// /invoke (decodeOnly) allows white space only.  req.Input is freshly allocated and req.Kernel
// copied: nothing in *req aliases body.
func decodeRequest(body []byte, req *Request) (int, error) {
	*req = Request{}
	i := skipSpace(body, 0)
	if hasLit(body, i, "null") {
		return i + 4, nil
	}
	if i >= len(body) || body[i] != '{' {
		return 0, syntaxErr(body, i, "a JSON object")
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return i + 1, nil
	}
	for {
		if i >= len(body) || body[i] != '"' {
			return 0, syntaxErr(body, i, "a member name")
		}
		end, plain, err := scanString(body, i)
		if err != nil {
			return 0, err
		}
		key := body[i+1 : end-1]
		if !plain {
			s, err := unquote(body[i:end])
			if err != nil {
				return 0, err
			}
			key = []byte(s)
		}
		i = skipSpace(body, end)
		if i >= len(body) || body[i] != ':' {
			return 0, syntaxErr(body, i, "':' after a member name")
		}
		i = skipSpace(body, i+1)
		if i, err = decodeMember(body, i, key, req); err != nil {
			return 0, err
		}
		i = skipSpace(body, i)
		if i < len(body) && body[i] == '}' {
			return i + 1, nil
		}
		if i >= len(body) || body[i] != ',' {
			return 0, syntaxErr(body, i, "',' or '}' after a member")
		}
		i = skipSpace(body, i+1)
	}
}

// errTrailing is /invoke's answer to anything but white space after its one
// request.
var errTrailing = errors.New("unexpected data after the request object")

// decodeOnly is decodeRequest for a body that must hold one request and
// nothing else: /invoke's.
func decodeOnly(body []byte, req *Request) error {
	n, err := decodeRequest(body, req)
	if err == nil && skipSpace(body, n) != len(body) {
		err = errTrailing
	}
	return err
}

var (
	keyKernel = []byte("kernel")
	keyInput  = []byte("input")
	keyN      = []byte("n")
	keySeed   = []byte("seed")
	keyVerify = []byte("verify")
)

// decodeMember decodes the value at b[i] into the field of req that key
// names (folded like encoding/json: bytes.EqualFold), or validates and skips
// it when key names none.  A value of the wrong JSON type for its field is an
// error, as is a number that is not an integer in the field's range.
func decodeMember(b []byte, i int, key []byte, req *Request) (int, error) {
	if hasLit(b, i, "null") {
		// "No change" for a scalar, a valid value to skip for an unknown
		// member, and for "input" what absent is.
		if bytes.EqualFold(key, keyInput) {
			req.Input = nil
		}
		return i + 4, nil
	}
	var err error
	switch {
	case bytes.EqualFold(key, keyInput):
		if i >= len(b) || b[i] != '[' {
			return 0, syntaxErr(b, i, `an array of integers for "input"`)
		}
		req.Input, i, err = parseWords(b, i+1)
		return i, err
	case bytes.EqualFold(key, keyKernel):
		if i >= len(b) || b[i] != '"' {
			return 0, syntaxErr(b, i, `a string for "kernel"`)
		}
		end, plain, err := scanString(b, i)
		if err != nil {
			return 0, err
		}
		if plain {
			req.Kernel = string(b[i+1 : end-1])
		} else if req.Kernel, err = unquote(b[i:end]); err != nil {
			return 0, err
		}
		return end, nil
	case bytes.EqualFold(key, keyN):
		end := scanInteger(b, i)
		if req.N, err = strconv.ParseInt(string(b[i:end]), 10, 64); err != nil {
			return 0, fmt.Errorf(`"n" at offset %d: want an integer in the int64 range`, i)
		}
		return end, nil
	case bytes.EqualFold(key, keySeed):
		end := scanInteger(b, i)
		if req.Seed, err = strconv.ParseUint(string(b[i:end]), 10, 64); err != nil {
			return 0, fmt.Errorf(`"seed" at offset %d: want an integer in the uint64 range`, i)
		}
		return end, nil
	case bytes.EqualFold(key, keyVerify):
		if req.Verify = hasLit(b, i, "true"); req.Verify {
			return i + 4, nil
		}
		if hasLit(b, i, "false") {
			return i + 5, nil
		}
		return 0, syntaxErr(b, i, `true or false for "verify"`)
	}
	return skipValue(b, i, 2)
}

// scanInteger returns the end of the longest prefix of b[i:] that is a JSON
// integer: '-'? ('0' | [1-9][0-9]*).  The prefix may be empty or a bare '-',
// which strconv then refuses; whatever follows it (a fraction, an exponent,
// a second digit after a leading zero) fails the caller's delimiter check.
func scanInteger(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		return i + 1
	}
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

var comma = []byte{','}

// parseWords parses the elements of "input" from b[i], just past the '['.
// The array can only be valid if it runs to the next ']' and holds nothing
// but integers, so the separators up to there give the element count and the
// words are allocated once.  An explicit empty array is an empty, non-nil
// slice (nil means "generate the payload").
func parseWords(b []byte, i int) ([]int64, int, error) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == ']' {
		return []int64{}, i + 1, nil
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, 0, syntaxErr(b, len(b), `']' to close "input"`)
	}
	end += i
	n := bytes.Count(b[i:end], comma) + 1
	// n integers and their separators take at least 2n−1 bytes; more
	// separators than that is junk, found before it sizes an allocation.
	if n > (end-i+1)/2 {
		return nil, 0, fmt.Errorf(`malformed "input": %d separators in %d bytes`, n-1, end-i)
	}
	words := make([]int64, n)
	for k := range words {
		for i < end && isSpace(b[i]) {
			i++
		}
		neg := i < end && b[i] == '-'
		if neg {
			i++
		}
		start := i
		var u uint64
		for i < end && b[i]-'0' <= 9 {
			u = u*10 + uint64(b[i]-'0')
			i++
		}
		// No integer in range has more than 19 digits, and 19 digits cannot
		// wrap a uint64, so u is exact whenever the length check passes.
		switch digits := i - start; {
		case digits == 0 && hasLit(b, i, "null"):
			return nil, 0, errNullWord
		case digits == 0 || digits > 1 && b[start] == '0':
			return nil, 0, syntaxErr(b, i, `an integer in "input"`)
		case digits > 19 || u > math.MaxInt64+1 || u == math.MaxInt64+1 && !neg:
			return nil, 0, fmt.Errorf(`"input"[%d] at offset %d is outside the int64 range`, k, start)
		}
		if neg {
			u = -u
		}
		words[k] = int64(u)
		for i < end && isSpace(b[i]) {
			i++
		}
		if k == n-1 {
			break
		}
		if b[i] != ',' { // i < end: a separator is still to come
			return nil, 0, syntaxErr(b, i, `',' between the integers of "input"`)
		}
		i++
	}
	if i != end {
		return nil, 0, syntaxErr(b, i, `',' or ']' in "input"`)
	}
	return words, end + 1, nil
}

// scanString validates the JSON string whose opening quote is b[i] and
// returns the offset just past its closing quote.  plain reports that the
// contents are the string's value as they stand: no escapes, nothing outside
// ASCII.
func scanString(b []byte, i int) (end int, plain bool, err error) {
	plain = true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1, plain, nil
		case c < 0x20:
			return 0, false, syntaxErr(b, j, "no control character in a string")
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			j++
			if j >= len(b) {
				return 0, false, syntaxErr(b, j, "an escape")
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if j+k >= len(b) || !isHex(b[j+k]) {
						return 0, false, syntaxErr(b, j+k, `four hex digits after \u`)
					}
				}
				j += 4
			default:
				return 0, false, syntaxErr(b, j, "a valid escape")
			}
		}
	}
	return 0, false, syntaxErr(b, len(b), "a closing '\"'")
}

func isHex(c byte) bool {
	return c-'0' <= 9 || c-'a' <= 'f'-'a' || c-'A' <= 'F'-'A'
}

// unquote decodes a string scanString accepted but did not find plain, with
// encoding/json's own rules (escapes, surrogate pairs, U+FFFD for invalid
// UTF-8).
func unquote(quoted []byte) (string, error) {
	var s string
	err := json.Unmarshal(quoted, &s)
	return s, err
}

// skipValue validates the JSON value at b[i], of any type, and returns the
// offset just past it.  depth is the nesting depth the value sits at (the
// request object itself is depth 1).
func skipValue(b []byte, i, depth int) (int, error) {
	if i >= len(b) {
		return 0, syntaxErr(b, i, "a value")
	}
	switch c := b[i]; {
	case c == '"':
		end, _, err := scanString(b, i)
		return end, err
	case c == '-' || c-'0' <= 9:
		return skipNumber(b, i)
	case hasLit(b, i, "true"), hasLit(b, i, "null"):
		return i + 4, nil
	case hasLit(b, i, "false"):
		return i + 5, nil
	case c == '[' || c == '{':
		if depth > maxDepth {
			return 0, fmt.Errorf("exceeded max depth at offset %d", i)
		}
		closer := c + 2 // ']' follows '[' by two in ASCII, as '}' does '{'
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == closer {
			return i + 1, nil
		}
		for {
			if c == '{' {
				if i >= len(b) || b[i] != '"' {
					return 0, syntaxErr(b, i, "a member name")
				}
				end, _, err := scanString(b, i)
				if err != nil {
					return 0, err
				}
				i = skipSpace(b, end)
				if i >= len(b) || b[i] != ':' {
					return 0, syntaxErr(b, i, "':' after a member name")
				}
				i = skipSpace(b, i+1)
			}
			var err error
			if i, err = skipValue(b, i, depth+1); err != nil {
				return 0, err
			}
			i = skipSpace(b, i)
			if i < len(b) && b[i] == closer {
				return i + 1, nil
			}
			if i >= len(b) || b[i] != ',' {
				return 0, syntaxErr(b, i, "',' or the closing bracket")
			}
			i = skipSpace(b, i+1)
		}
	}
	return 0, syntaxErr(b, i, "a value")
}

// skipNumber validates the JSON number at b[i]:
// '-'? ('0' | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?
func skipNumber(b []byte, i int) (int, error) {
	digits := func() bool {
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	j := scanInteger(b, i)
	if j == i || b[j-1] == '-' {
		return 0, syntaxErr(b, j, "a digit")
	}
	i = j
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, syntaxErr(b, i, "a digit after the decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, syntaxErr(b, i, "a digit in the exponent")
		}
	}
	return i, nil
}

// appendResponse appends r as one line of JSON, byte for byte what
// json.Marshal(r) followed by '\n' gives (TestAppendResponseMatchesStdlib):
// a member added to Response has to be added here.
func appendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, `{"kernel":`...)
	dst = appendString(dst, r.Kernel)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, r.N, 10)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"output":`...)
	if r.Output == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, w := range r.Output {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, w, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"batched":`...)
	dst = strconv.AppendInt(dst, int64(r.Batched), 10)
	if r.Verified != nil {
		dst = append(dst, `,"verified":`...)
		dst = strconv.AppendBool(dst, *r.Verified)
	}
	return append(dst, '}', '\n')
}

// appendString appends s as a JSON string.  Catalog kernel names are plain
// ASCII and are copied; anything json.Marshal would escape is left to it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// responseBytes bounds the encoding of a response carrying words output
// words: a word is at most 20 characters and a separator, the envelope under
// 128 bytes plus the kernel name.
func responseBytes(kernel string, words int) int { return 21*words + len(kernel) + 128 }

// Buffer recycling.  A request body and an encoded response are each one
// large, short-lived []byte — 650 KB and 700 KB for a 65536-word sort — and
// at the benchmark's mixed load that was ~70 MB/s of garbage.  bufList keeps
// a few for reuse.  It is not a sync.Pool because the GC empties those, and
// at that allocation rate it runs several times a second, so the pool was
// empty more often than not (heavy request 6.6 ms with sync.Pool, 5.4 ms
// with this).  What it may hold is bounded by the two constants: at most
// maxFreeBufs × maxFreeBufBytes = 32 MiB for the life of the service.
const (
	maxFreeBufs     = 8
	maxFreeBufBytes = 4 << 20 // larger buffers are left to the GC
)

// bufList is a mutex-guarded free list of byte buffers; the zero value is
// ready.  A buffer handed to put must not be referenced afterwards.
type bufList struct {
	mu   sync.Mutex
	free [][]byte
}

// get returns an empty buffer of capacity at least n: the smallest free one
// that fits, so small requests do not sit on the large buffers, or a new one.
func (l *bufList) get(n int) []byte {
	l.mu.Lock()
	best := -1
	for i, b := range l.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]byte, 0, n)
	}
	b := l.free[best]
	last := len(l.free) - 1
	l.free[best] = l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	l.mu.Unlock()
	return b[:0]
}

// put offers b for reuse; it is dropped when the list is full or b is over
// maxFreeBufBytes.
func (l *bufList) put(b []byte) {
	if cap(b) == 0 || cap(b) > maxFreeBufBytes {
		return
	}
	l.mu.Lock()
	if len(l.free) < maxFreeBufs {
		l.free = append(l.free, b)
	}
	l.mu.Unlock()
}
