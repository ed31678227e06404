package serve

// The request/response codec of /invoke and /batch, with no reflection.  A
// request is a JSON object whose one large member is "input", an array of
// int64 words; a response is the same with "output".  encoding/json walks
// such a body three times (validate, decode through reflection, regrow the
// slice by doubling) and was 80% of a 65536-word request's service time.
// decodeRequest scans the envelope by hand, counts the separators of
// "input" so the words are allocated once at their exact size, and parses
// digits straight into them; encodeResponse formats words straight into a
// caller-supplied buffer from a table of digit pairs.
//
// The word arrays are coded as a blocked scan (wirePass): a serial pass
// cuts the array into blocks of about codecBlock bytes and gives each the
// offset of its first word (decode: its comma count, prefixed) or of its
// output region (encode: its worst case, 21 bytes a word), then the blocks
// parse or format into disjoint ranges, and an encode closes its regions
// up in order.  A Service runs a payload of several blocks as an fj loop on
// its own pool, whose lazy splitting lends the request an idle worker and
// takes none from running kernels; a payload of one block — every small
// request — is coded inline on the handler goroutine by the same block
// function.  The result is the serial one: a decode fails with the first
// failing block's error, which is the error a serial parse stops at.
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
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"repro/internal/fj"
	"repro/internal/rt"
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
// copied: nothing in *req aliases body.  s codes the words of "input" (see
// Service.code; nil codes them inline).
func decodeRequest(body []byte, req *Request, s *Service) (int, error) {
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
		if i, err = decodeMember(body, i, key, req, s); err != nil {
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
func decodeOnly(body []byte, req *Request, s *Service) error {
	n, err := decodeRequest(body, req, s)
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
func decodeMember(b []byte, i int, key []byte, req *Request, s *Service) (int, error) {
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
		req.Input, i, err = parseWords(b, i+1, s)
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
//
// Blocks start just past a comma, at least codecBlock bytes apart, so each
// holds whole words and its comma count is its word count (plus one for the
// last); s runs parseBlock on each.
func parseWords(b []byte, i int, s *Service) ([]int64, int, error) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == ']' {
		return []int64{}, i + 1, nil
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, 0, syntaxErr(b, len(b), `']' to close "input"`)
	}
	end += i
	p := s.getPass()
	defer s.putPass(p)
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
		return nil, 0, fmt.Errorf(`malformed "input": %d separators in %d bytes`, n-1, end-i)
	}
	p.decode, p.buf, p.end, p.words = true, b, end, make([]int64, n)
	s.code(p)
	for _, blk := range p.blocks {
		if blk.err != nil {
			return nil, 0, blk.err
		}
	}
	return p.words, end + 1, nil
}

// parseBlock parses words[lo:hi] from b[i]; end is the offset of the ']'
// that closes the array.  It is the serial parse of those words: started
// just past the comma that ends word lo−1 (or at the first word), it
// consumes the same bytes and fails with the same error.
func parseBlock(b []byte, i, end int, words []int64, lo, hi int) error {
	n := len(words)
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
		words[k] = int64(u)
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

// appendResponse is encodeResponse with every block coded inline.  With
// no Service there is no recover, so there is no error to return.
func appendResponse(dst []byte, r *Response) []byte {
	dst, _ = encodeResponse(dst, r, nil)
	return dst
}

// encodeResponse appends r as one line of JSON, byte for byte what
// json.Marshal(r) followed by '\n' gives (TestAppendResponseMatchesStdlib):
// a member added to Response has to be added here.  s codes the words of
// "output" (see Service.code); the error is a panic it recovered from a
// block.
func encodeResponse(dst []byte, r *Response, s *Service) ([]byte, error) {
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
		var err error
		if dst, err = appendWords(dst, r.Output, s); err != nil {
			return dst, err
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"batched":`...)
	dst = strconv.AppendInt(dst, int64(r.Batched), 10)
	if r.Verified != nil {
		dst = append(dst, `,"verified":`...)
		dst = strconv.AppendBool(dst, *r.Verified)
	}
	return append(dst, '}', '\n'), nil
}

// maxWordBytes is the longest a word and its separator print:
// ",-9223372036854775808".
const maxWordBytes = 21

// appendWords appends words, comma-separated.  Each block of codecBlock/8
// words formats into a region of its worst case at maxWordBytes × its first
// word, and the regions are closed up in order: one copy of the output,
// where a length pass would read every word twice.
func appendWords(dst []byte, words []int64, s *Service) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, maxWordBytes*len(words))
	p := s.getPass()
	defer s.putPass(p)
	per := max(1, codecBlock/8)
	for w := 0; w < len(words); w += per {
		p.blocks = append(p.blocks, wireBlock{word: w, at: base + maxWordBytes*w})
	}
	p.buf, p.words = dst[:cap(dst)], words
	s.code(p)
	end := base
	for _, blk := range p.blocks {
		if blk.err != nil {
			return dst, blk.err
		}
		if blk.at != end {
			copy(p.buf[end:], p.buf[blk.at:blk.at+blk.size])
		}
		end += blk.size
	}
	return p.buf[:end], nil
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
// "output" (as many bytes of int64).  A block amortizes its bookkeeping —
// an offset, a recover, and when the pool splits the loop a steal and the
// cache lines it shares with its neighbours — over thousands of words, and
// a 256-word request (≈ 2.5 KB) stays one block, coded inline.  A variable
// only so that tests can make small payloads cross blocks.
var codecBlock = 16 << 10

// wirePass is one blocked pass of the codec over a word array: the parse
// of "input" (decode) or the formatting of "output".  Block b holds words
// [blocks[b].word, blocks[b+1].word), the last block up to len(words), and
// its bytes start at blocks[b].at of buf.  A service recycles its passes
// (passList) with root, loop and leaf bound once, so a pass run on the pool
// allocates only its rt task and its fj.Ctx.
type wirePass struct {
	decode bool
	buf    []byte // decode: the request body; encode: the response buffer, to its capacity
	end    int    // decode: offset of the ']' that closes "input"
	words  []int64
	blocks []wireBlock

	hook func()        // Service.hookBlock
	done chan struct{} // root's completion
	root func(*rt.Ctx)
	loop func(*fj.Ctx)
	leaf func(*fj.Ctx, int64, int64)
}

// wireBlock is one block of a wirePass.  Each is written by the one task
// that codes the block.
type wireBlock struct {
	word int   // the block's first word
	at   int   // decode: offset of its first byte; encode: offset of its region
	size int   // encode: bytes written at at
	err  error // decode: the block's error; either: a panic Service.code recovered
}

func newPass() *wirePass {
	p := &wirePass{done: make(chan struct{}, 1)}
	p.leaf = func(_ *fj.Ctx, lo, hi int64) {
		for b := lo; b < hi; b++ {
			p.safeBlock(int(b))
		}
	}
	p.loop = func(c *fj.Ctx) { c.ForRange(0, int64(len(p.blocks)), 1, p.leaf) }
	p.root = func(rc *rt.Ctx) {
		fj.RunOn(rc, p.loop)
		p.done <- struct{}{}
	}
	return p
}

// maxFreePasses bounds passList: passes are small, but one coding a large
// payload keeps its block slice.
const maxFreePasses = 16

// passList is a mutex-guarded free list of passes; the zero value is ready.
// It is not a sync.Pool for bufList's reason: the GC empties those, and a
// heavy request allocates ~1 MB of words, so with a sync.Pool most passes
// were new, six objects each (the pass, its channel, three closures and
// its block slice), over TestInvokeAllocRegression's pin.
type passList struct {
	mu   sync.Mutex
	free []*wirePass
}

// getPass returns an empty pass: s's, or a new one when s is nil.
func (s *Service) getPass() *wirePass {
	if s == nil {
		return newPass()
	}
	l := &s.passes
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return p
	}
	return newPass()
}

// putPass clears p of the request's memory and offers it to s for reuse.
func (s *Service) putPass(p *wirePass) {
	if s == nil {
		return
	}
	clear(p.blocks)
	p.decode, p.buf, p.end, p.words, p.blocks, p.hook = false, nil, 0, nil, p.blocks[:0], nil
	l := &s.passes
	l.mu.Lock()
	if len(l.free) < maxFreePasses {
		l.free = append(l.free, p)
	}
	l.mu.Unlock()
}

// block codes block b.
func (p *wirePass) block(b int) {
	blk := &p.blocks[b]
	hi := len(p.words)
	if b+1 < len(p.blocks) {
		hi = p.blocks[b+1].word
	}
	if p.decode {
		blk.err = parseBlock(p.buf, blk.at, p.end, p.words, blk.word, hi)
	} else {
		blk.size = formatBlock(p.buf, blk.at, p.words, blk.word, hi)
	}
}

// errCodecPanic marks a panic recovered from a codec block: a bug, which
// fails its request with 500 instead of the process.
var errCodecPanic = errors.New("serve: codec failure")

// safeBlock is block under a recover.  On a pool worker nothing else would
// catch a panic (net/http's recover covers only the handler goroutine), so
// a block keeps its own, inline too, and a panic fails just its request.
func (p *wirePass) safeBlock(b int) {
	defer func() {
		if r := recover(); r != nil {
			p.blocks[b].err = fmt.Errorf("%w: %v", errCodecPanic, r)
		}
	}()
	if p.hook != nil {
		p.hook()
	}
	p.block(b)
}

// code runs the blocks of p.  A payload of several blocks runs as an fj
// loop on the service's pool, whose lazy splitting forks blocks only to an
// idle worker; one block, or a service already closed, is coded inline on
// the calling goroutine.  A nil s codes every block inline, in order and
// with no recover: the package's tests compare that with the pool's run.
func (s *Service) code(p *wirePass) {
	if s == nil {
		for b := range p.blocks {
			p.block(b)
		}
		return
	}
	p.hook = s.hookBlock
	if len(p.blocks) > 1 {
		// Under mu, like admit: no root reaches the pool after Close.  Not
		// held while waiting — a worker's run takes it too.
		s.mu.RLock()
		open := !s.closed
		if open {
			s.pool.Submit(p.root)
		}
		s.mu.RUnlock()
		if open {
			<-p.done
			return
		}
	}
	for b := range p.blocks {
		p.safeBlock(b)
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
// the kernel name.  encodeResponse formats into exactly that worst case.
func responseBytes(kernel string, words int) int { return maxWordBytes*words + len(kernel) + 128 }

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

// put offers b for reuse; it is dropped when it is over maxFreeBufBytes, or
// when the list is full of buffers at least as large.  A full list trades
// its smallest buffer for a larger one: otherwise, once a burst of small
// requests has filled it, every large response buffer is dropped and
// reallocated until the process ends.
func (l *bufList) put(b []byte) {
	if cap(b) == 0 || cap(b) > maxFreeBufBytes {
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
