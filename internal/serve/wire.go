package serve

// The request/response codec of /invoke and /batch, with no reflection.  A
// request is a JSON object whose one large member is "input", an array of
// int64 words; a response is the same with "output".  encoding/json walks
// such a body three times (validate, decode through reflection, regrow the
// slice by doubling) and was 80% of a 65536-word request's service time.
// scanRequest scans the envelope by hand and counts the separators of
// "input", so the words are allocated once at their exact size, after the
// word cap is checked; parse puts digits straight into them; encode formats
// words into a caller-supplied buffer from a table of digit pairs.
//
// The word arrays are coded as a blocked scan (wirePass): a serial pass
// cuts the array into blocks of about codecBlock bytes and gives each the
// offset of its first word (decode: its comma count, prefixed) or of its
// output region (encode: its worst case, 21 bytes a word), then the blocks
// parse or format into disjoint ranges, and an encode closes its regions
// up in order.  The handler only scans; the request's root parses and
// encodes (Service.serve), a payload of several blocks as an fj loop whose
// lazy splitting lends the request an idle worker and takes none from
// running kernels, one block — every small request — inline.  A decode
// fails with the first failing block's error: where a serial parse stops.
//
// The grammar is the one http.go documents: what json.Unmarshal into a
// Request accepts, pinned by FuzzDecodeRequest with encoding/json as the
// oracle, except that a null element of "input" is refused (errNullWord).
// Strings that need unquoting (escapes, non-ASCII) take encoding/json's own
// string decoder — they are short and cold.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/fj"
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

// scanRequest decodes the JSON value at the start of body (leading white
// space allowed) into *req, except that it locates the words of "input" in
// *in (!in.decode: absent or null) to be parsed later, and returns how many
// bytes it took.  What follows is the caller's business: /batch reads the
// next request there, /invoke allows white space only.  Nothing in *req
// aliases body.  The caller passes the error through in.first: a located
// word that fails comes before a later error in the envelope.
func scanRequest(body []byte, req *Request, in *wirePass) (int, error) {
	*req, in.decode, in.blocks = Request{}, false, in.blocks[:0]
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
		if i, err = decodeMember(body, i, key, req, in); err != nil {
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

// scanOnly is scanRequest for a body that must hold one request and nothing
// else: /invoke's.
func scanOnly(body []byte, req *Request, in *wirePass) error {
	n, err := scanRequest(body, req, in)
	if err == nil && skipSpace(body, n) != len(body) {
		err = errTrailing
	}
	return in.first(err)
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
func decodeMember(b []byte, i int, key []byte, req *Request, in *wirePass) (int, error) {
	if bytes.EqualFold(key, keyInput) {
		// The last "input" wins, but an earlier one's words are checked
		// first: their error stands earlier in the body.
		if err := in.check(); err != nil {
			return 0, err
		}
		in.decode, in.blocks = false, in.blocks[:0]
	}
	if hasLit(b, i, "null") {
		// "No change" for a scalar, a valid value to skip for an unknown
		// member, and for "input" what absent is.
		return i + 4, nil
	}
	var err error
	switch {
	case bytes.EqualFold(key, keyInput):
		if i >= len(b) || b[i] != '[' {
			return 0, syntaxErr(b, i, `an array of integers for "input"`)
		}
		return in.locate(b, i+1)
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

// locate finds the words of "input" in b from b[i], just past the '[', for
// parse.  The array can only be valid if it runs to the next ']' and holds
// nothing but integers, so the separators up to there count the words (n;
// an explicit empty array is 0).  Blocks start just past a comma, at least
// codecBlock bytes apart, so each holds whole words and its comma count is
// its word count (plus one for the last).
func (p *wirePass) locate(b []byte, i int) (int, error) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == ']' {
		p.decode, p.n = true, 0
		return i + 1, nil
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return 0, syntaxErr(b, len(b), `']' to close "input"`)
	}
	end += i
	n := 1
	for at := i; ; {
		next := end
		if at+codecBlock < end {
			if c := bytes.IndexByte(b[at+codecBlock:end], ','); c >= 0 {
				next = at + codecBlock + c + 1
			}
		}
		p.blocks = append(p.blocks, wireBlock{word: n - 1, at: at})
		n += bytes.Count(b[at:next], comma)
		if next == end {
			break
		}
		at = next
	}
	// n integers and their separators take at least 2n−1 bytes; more
	// separators than that is junk, found before it sizes an allocation.
	if n > (end-i+1)/2 {
		p.blocks = p.blocks[:0]
		return 0, fmt.Errorf(`malformed "input": %d separators in %d bytes`, n-1, end-i)
	}
	p.decode, p.buf, p.end, p.n = true, b, end, n
	return end + 1, nil
}

// parseBlock parses words[lo:hi] of the n words of an array from b[i]; end
// is the offset of the ']' that closes the array.  It is the serial parse of
// those words: started just past the comma that ends word lo−1 (or at the
// first word), it consumes the same bytes and fails with the same error.  A
// nil words checks the words without storing them.
func parseBlock(b []byte, i, end int, words []int64, n, lo, hi int) error {
	for k := lo; k < hi; k++ {
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
			return errNullWord
		case digits == 0 || digits > 1 && b[start] == '0':
			return syntaxErr(b, i, `an integer in "input"`)
		case digits > 19 || u > math.MaxInt64+1 || u == math.MaxInt64+1 && !neg:
			return fmt.Errorf(`"input"[%d] at offset %d is outside the int64 range`, k, start)
		}
		if neg {
			u = -u
		}
		if words != nil {
			words[k] = int64(u)
		}
		for i < end && isSpace(b[i]) {
			i++
		}
		if k == n-1 {
			break
		}
		if b[i] != ',' { // i < end: a separator is still to come
			return syntaxErr(b, i, `',' between the integers of "input"`)
		}
		i++
	}
	if hi == n && i != end {
		return syntaxErr(b, i, `',' or ']' in "input"`)
	}
	return nil
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

// encode appends r as one line of JSON, byte for byte what json.Marshal(r)
// followed by '\n' gives (TestAppendResponseMatchesStdlib): a member added
// to Response has to be added here.  p's blocks code the words of "output"
// (see run).
func (p *wirePass) encode(dst []byte, r *Response, fc *fj.Ctx) []byte {
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
		dst = append(p.appendWords(append(dst, '['), r.Output, fc), ']')
	}
	dst = append(dst, `,"batched":`...)
	dst = strconv.AppendInt(dst, int64(r.Batched), 10)
	if r.Verified != nil {
		dst = append(dst, `,"verified":`...)
		dst = strconv.AppendBool(dst, *r.Verified)
	}
	return append(dst, '}', '\n')
}

// maxWordBytes is the longest a word and its separator print:
// ",-9223372036854775808".
const maxWordBytes = 21

// appendWords appends words, comma-separated.  Each block of codecBlock/8
// words formats into a region of its worst case at maxWordBytes × its first
// word, and the regions are closed up in order: one copy of the output,
// where a length pass would read every word twice.
func (p *wirePass) appendWords(dst []byte, words []int64, fc *fj.Ctx) []byte {
	base := len(dst)
	dst = slices.Grow(dst, maxWordBytes*len(words))
	p.decode, p.buf, p.n, p.words, p.blocks = false, dst[:cap(dst)], len(words), words, p.blocks[:0]
	per := max(1, codecBlock/8)
	for w := 0; w < len(words); w += per {
		p.blocks = append(p.blocks, wireBlock{word: w, at: base + maxWordBytes*w})
	}
	p.run(fc)
	end := base
	for _, blk := range p.blocks {
		if blk.at != end {
			copy(p.buf[end:], p.buf[blk.at:blk.at+blk.size])
		}
		end += blk.size
	}
	return p.buf[:end]
}

// formatBlock writes words[lo:hi] at buf[i:], each after a comma but the
// array's first, and returns how many bytes it wrote.
func formatBlock(buf []byte, i int, words []int64, lo, hi int) int {
	start := i
	for k := lo; k < hi; k++ {
		if k > 0 {
			buf[i] = ','
			i++
		}
		i = putInt(buf, i, words[k])
	}
	return i - start
}

// digitPairs holds "00" through "99", so a word formats two digits per
// division.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// pow10 holds 10^0 through 10^19, the thresholds of decimalLen.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen is the number of decimal digits of u: log10 estimated from the
// bit length (1233/4096 ≈ log10 2), then corrected by one comparison.
func decimalLen(u uint64) int {
	v := u | 1 // 0 prints one digit; no threshold separates v from u
	t := bits.Len64(v) * 1233 >> 12
	if v < pow10[t] {
		return t
	}
	return t + 1
}

// putInt writes w in decimal at buf[i:], as strconv.FormatInt does, and
// returns the offset just past it.  The digits go straight to their places,
// last first, without strconv's staging buffer and copy: eight at a time
// while more than eight remain (put8), then two at a time.
func putInt(buf []byte, i int, w int64) int {
	u := uint64(w)
	if w < 0 {
		buf[i] = '-'
		i++
		u = -u
	}
	end := i + decimalLen(u)
	j := end
	for u >= 1e8 {
		q := u / 1e8
		put8(buf[j-8:j], u-1e8*q)
		j -= 8
		u = q
	}
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		j -= 2
		buf[j], buf[j+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		buf[j-2], buf[j-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		buf[j-1] = byte('0' + u)
	}
	return end
}

// put8 writes r < 10^8 as exactly eight digits.  Its four pairs come from
// two independent divisions, not a chain of four.
func put8(b []byte, r uint64) {
	hi, lo := r/1e4, r%1e4
	h1, h2 := 2*(hi/100), 2*(hi%100)
	l1, l2 := 2*(lo/100), 2*(lo%100)
	_ = b[7]
	b[0], b[1], b[2], b[3] = digitPairs[h1], digitPairs[h1+1], digitPairs[h2], digitPairs[h2+1]
	b[4], b[5], b[6], b[7] = digitPairs[l1], digitPairs[l1+1], digitPairs[l2], digitPairs[l2+1]
}

// codecBlock sizes the codec's blocks: a decode block is at least
// codecBlock bytes of "input", an encode block codecBlock/8 words of
// "output".  A block amortizes its bookkeeping (an offset, and when the
// loop splits a steal and the cache lines it shares) over
// thousands of words; a 256-word request (≈ 2.5 KB) stays one block.  A
// variable so that tests can make small payloads cross blocks.
var codecBlock = 16 << 10

// wirePass is one blocked pass of the codec over a word array: the parse
// of "input" (decode) or the formatting of "output".  Block b holds words
// [blocks[b].word, blocks[b+1].word), the last block up to the array's end,
// and its bytes start at blocks[b].at of buf.  A call's pass is located by
// the handler's scan, then parsed and reused for the encode by its root.
type wirePass struct {
	decode bool   // a parse; in a call, one not yet run on the located words
	buf    []byte // decode: the body; encode: the response buffer, to its capacity
	end    int    // decode: offset of the ']' that closes "input"
	n      int    // the word count
	words  []int64
	blocks []wireBlock
	hook   func(p *wirePass, b int) // Service.hookBlock
}

// wireBlock is one block of a wirePass, written by the task that codes it.
type wireBlock struct {
	word int   // the block's first word
	at   int   // decode: offset of its first byte; encode: offset of its region
	size int   // encode: bytes written at at
	err  error // decode: the block's error
}

// parse parses the located words into words (n, or nil to only check them)
// and returns the first failing block's error: a serial parse's error.
func (p *wirePass) parse(words []int64, fc *fj.Ctx) error {
	p.words = words
	p.run(fc)
	for _, blk := range p.blocks {
		if blk.err != nil {
			return blk.err
		}
	}
	return nil
}

// check is parse without storing the words, on the handler's goroutine,
// where a panic is ErrKernel; nil when no words are located.
func (p *wirePass) check() (err error) {
	if !p.decode {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrKernel, r)
		}
	}()
	return p.parse(nil, nil)
}

// first returns the error of the located words if they have one, else err:
// err was found after them in the body, so theirs comes first.
func (p *wirePass) first(err error) error {
	if err != nil {
		if werr := p.check(); werr != nil {
			return werr
		}
	}
	return err
}

// run codes the blocks of p: inline and in order on a nil fc or with one
// block (every small payload), else as an fj loop on fc, whose lazy
// splitting forks blocks only to an idle worker.
func (p *wirePass) run(fc *fj.Ctx) {
	if fc == nil || len(p.blocks) <= 1 {
		p.code(0, len(p.blocks))
		return
	}
	fc.ForRange(0, int64(len(p.blocks)), 1, func(_ *fj.Ctx, lo, hi int64) { p.code(int(lo), int(hi)) })
}

// code codes blocks [lo, hi).
func (p *wirePass) code(lo, hi int) {
	for b := lo; b < hi; b++ {
		if p.hook != nil {
			p.hook(p, b)
		}
		blk := &p.blocks[b]
		end := p.n
		if b+1 < len(p.blocks) {
			end = p.blocks[b+1].word
		}
		if p.decode {
			blk.err = parseBlock(p.buf, blk.at, p.end, p.words, p.n, blk.word, end)
		} else {
			blk.size = formatBlock(p.buf, blk.at, p.words, blk.word, end)
		}
	}
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
// words: a word is at most maxWordBytes, the envelope under 128 bytes plus
// the kernel name.  encode formats into exactly that worst case.
func responseBytes(kernel string, words int) int { return maxWordBytes*words + len(kernel) + 128 }

// Recycling.  A 65536-word sort's body and response are 650 KB and 700 KB
// of bytes, and its input and output 512 KB of words each: short-lived
// garbage that a freeList keeps a few of for reuse.  Not a sync.Pool: the GC
// empties those, at that allocation rate several times a second (heavy
// request 6.6 ms with sync.Pool, 5.4 ms with this).  One list holds at most
// maxFreeBufs × maxFreeBufBytes = 32 MiB for the life of the service.
const (
	maxFreeBufs     = 8
	maxFreeBufBytes = 4 << 20 // larger buffers are left to the GC
)

// freeList is a mutex-guarded free list of slices; the zero value is ready.
// A slice handed to put must not be referenced afterwards.
type freeList[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// get returns an empty slice of capacity at least n: the smallest free one
// that fits, so small requests do not sit on the large ones, or a new one.
// What a reused slice held is still there, past its length.
func (l *freeList[T]) get(n int) []T {
	if n == 0 {
		return make([]T, 0) // no slab for an empty payload
	}
	l.mu.Lock()
	best := -1
	for i, b := range l.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]T, 0, n)
	}
	b := l.free[best]
	last := len(l.free) - 1
	l.free[best] = l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	l.mu.Unlock()
	return b[:0]
}

// put offers b for reuse; it is dropped when it is over maxFreeBufBytes, or
// when the list is full of slices at least as large.  A full list trades
// its smallest slice for a larger one: otherwise, once a burst of small
// requests has filled it, every large buffer is dropped and reallocated
// until the process ends.
func (l *freeList[T]) put(b []T) {
	var elem T
	if cap(b) == 0 || uintptr(cap(b))*unsafe.Sizeof(elem) > maxFreeBufBytes {
		return
	}
	l.mu.Lock()
	if len(l.free) < maxFreeBufs {
		l.free = append(l.free, b)
	} else {
		least := 0
		for i, f := range l.free {
			if cap(f) < cap(l.free[least]) {
				least = i
			}
		}
		if cap(l.free[least]) < cap(b) {
			l.free[least] = b
		}
	}
	l.mu.Unlock()
}
