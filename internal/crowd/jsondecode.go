package crowd

import (
	"bytes"
	"fmt"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// maxJSONDepth is encoding/json's nesting limit: arrays and objects may
// nest 10000 deep, the top-level value counting as depth 1.
const maxJSONDepth = 10000

// datasetFields are the datasetJSON keys, in field order.
var datasetFields = [...][]byte{
	[]byte("workers"), []byte("tasks"), []byte("arity"), []byte("responses"), []byte("truth"),
}

// jsonDecoder is a cursor over a JSON document being decoded into a
// datasetJSON.
type jsonDecoder struct {
	data []byte
	off  int
	key  []byte // scratch for keys that carry escapes

	lastPairs int // length of the last pair list decoded
}

// decodeDatasetJSON decodes data into in in a single pass, without
// reflection. It accepts exactly the documents json.Unmarshal accepts for a
// *datasetJSON and leaves in exactly as json.Unmarshal would:
//
//   - the whole document must be valid JSON, unknown fields included, with
//     nothing but whitespace after the value and at most maxJSONDepth
//     levels of nesting;
//   - keys match field names case-insensitively after unescaping, the way
//     bytes.EqualFold compares; unknown keys are skipped;
//   - null sets a slice to nil and leaves an int or a pair unchanged;
//   - [] is an empty non-nil slice; a pair keeps its first two elements
//     and zero-fills the rest; a repeated key decodes again into the
//     existing backing arrays;
//   - an int must be a JSON number without fraction or exponent that fits
//     in int; any other value where an int, a pair or a list is expected
//     is a type error.
//
// Errors carry the byte offset at which decoding stopped.
func decodeDatasetJSON(data []byte, in *datasetJSON) error {
	dec := jsonDecoder{data: data}
	dec.skipSpace()
	if err := dec.dataset(in); err != nil {
		return err
	}
	dec.skipSpace()
	if dec.off < len(dec.data) {
		return dec.syntaxError("after top-level value")
	}
	return nil
}

func (dec *jsonDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("crowd: JSON offset %d: %s", dec.off, fmt.Sprintf(format, args...))
}

// syntaxError reports the byte at the cursor, or the end of the input.
func (dec *jsonDecoder) syntaxError(context string) error {
	if dec.off >= len(dec.data) {
		return dec.errorf("unexpected end of JSON input")
	}
	return dec.errorf("invalid character %q %s", dec.data[dec.off], context)
}

// typeError reports a syntactically plausible value of the wrong type.
// Both it and syntaxError reject the document, as json.Unmarshal does.
func (dec *jsonDecoder) typeError(want string) error {
	if dec.off >= len(dec.data) {
		return dec.errorf("unexpected end of JSON input")
	}
	return dec.errorf("cannot decode value starting %q into %s", dec.data[dec.off], want)
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (dec *jsonDecoder) peek() byte {
	if dec.off < len(dec.data) {
		return dec.data[dec.off]
	}
	return 0
}

func (dec *jsonDecoder) skipSpace() {
	for dec.off < len(dec.data) {
		switch dec.data[dec.off] {
		case ' ', '\t', '\n', '\r':
			dec.off++
		default:
			return
		}
	}
}

// literal consumes one of true, false or null.
func (dec *jsonDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if dec.off >= len(dec.data) || dec.data[dec.off] != lit[i] {
			return dec.syntaxError("in literal " + lit)
		}
		dec.off++
	}
	return nil
}

// dataset decodes the top-level object into in. A top-level null leaves in
// unchanged.
func (dec *jsonDecoder) dataset(in *datasetJSON) error {
	switch dec.peek() {
	case 'n':
		return dec.literal("null")
	case '{':
	default:
		return dec.typeError("dataset object")
	}
	return dec.object(1, func(key []byte, escaped bool) error {
		switch dec.field(key, escaped) {
		case 0:
			return dec.int(&in.Workers)
		case 1:
			return dec.int(&in.Tasks)
		case 2:
			return dec.int(&in.Arity)
		case 3:
			var err error
			in.Responses, err = dec.responses(in.Responses)
			return err
		case 4:
			var err error
			in.Truth, err = dec.ints(in.Truth)
			return err
		}
		return dec.skipValue(2)
	})
}

// field returns the index in datasetFields of the key with the given
// string body, or -1 for an unknown key.
func (dec *jsonDecoder) field(raw []byte, escaped bool) int {
	key := raw
	if escaped {
		dec.key = unescape(dec.key[:0], raw)
		key = dec.key
	}
	for i, name := range datasetFields {
		if bytes.EqualFold(key, name) {
			return i
		}
	}
	return -1
}

// object decodes the object at the cursor, nested depth levels deep. For
// each member it calls member with the key's string body, and whether that
// contains an escape, once the cursor is on the member's value.
func (dec *jsonDecoder) object(depth int, member func(key []byte, escaped bool) error) error {
	if depth > maxJSONDepth {
		return dec.errorf("exceeded max depth")
	}
	dec.off++
	dec.skipSpace()
	if dec.peek() == '}' {
		dec.off++
		return nil
	}
	for {
		if dec.peek() != '"' {
			return dec.syntaxError("looking for beginning of object key string")
		}
		key, escaped, err := dec.str()
		if err != nil {
			return err
		}
		dec.skipSpace()
		if dec.peek() != ':' {
			return dec.syntaxError("after object key")
		}
		dec.off++
		dec.skipSpace()
		if err := member(key, escaped); err != nil {
			return err
		}
		dec.skipSpace()
		switch dec.peek() {
		case ',':
			dec.off++
			dec.skipSpace()
		case '}':
			dec.off++
			return nil
		default:
			return dec.syntaxError("after object key:value pair")
		}
	}
}

// str consumes a string literal and returns the bytes between its quotes,
// and whether they contain an escape.
func (dec *jsonDecoder) str() (raw []byte, escaped bool, err error) {
	dec.off++ // opening quote
	start := dec.off
	for dec.off < len(dec.data) {
		c := dec.data[dec.off]
		switch {
		case c == '"':
			raw = dec.data[start:dec.off]
			dec.off++
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			dec.off++
			switch dec.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				dec.off++
			case 'u':
				dec.off++
				for i := 0; i < 4; i++ {
					if !isHex(dec.peek()) {
						return nil, false, dec.syntaxError("in \\u hexadecimal character escape")
					}
					dec.off++
				}
			default:
				return nil, false, dec.syntaxError("in string escape code")
			}
		case c < ' ':
			return nil, false, dec.syntaxError("in string literal")
		default:
			dec.off++
		}
	}
	return nil, false, dec.syntaxError("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unescape appends the decoded form of raw, a validated string body, to
// dst. Invalid surrogates decode to U+FFFD, as in encoding/json; invalid
// UTF-8 is copied as is, which cannot change whether a key folds to an
// ASCII field name.
func unescape(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		switch raw[i+1] {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					if pair := utf16.DecodeRune(r, hex4(raw[i+2:])); pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				} else {
					r = utf8.RuneError
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default: // '"', '\\', '/'
			dst = append(dst, raw[i+1])
		}
		i += 2
	}
	return dst
}

// hex4 decodes four validated hexadecimal digits.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// int decodes an int into *v; null leaves *v unchanged.
func (dec *jsonDecoder) int(v *int) error {
	c := dec.peek()
	if c == 'n' {
		return dec.literal("null")
	}
	if c != '-' && !isDigit(c) {
		return dec.typeError("int")
	}
	start := dec.off
	neg := c == '-'
	if neg {
		dec.off++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	switch c := dec.peek(); {
	case c == '0':
		dec.off++
	case '1' <= c && c <= '9':
		first := dec.off
		for dec.off < len(dec.data) && isDigit(dec.data[dec.off]) {
			n = n*10 + uint64(dec.data[dec.off]-'0')
			dec.off++
		}
		// 19 digits cannot wrap n, and 20 always exceed the limit.
		if dec.off-first > 19 || n > limit {
			dec.off = start
			return dec.errorf("number overflows int")
		}
	default:
		return dec.syntaxError("in numeric literal")
	}
	switch dec.peek() {
	case '.', 'e', 'E':
		dec.off = start
		return dec.errorf("number with fraction or exponent where an int is expected")
	}
	if neg {
		*v = int(-n) // two's complement: -(MaxInt+1) is MinInt
	} else {
		*v = int(n)
	}
	return nil
}

// array decodes the array at the cursor, nested depth levels deep, calling
// elem for each element with its index. It returns the element count and
// whether the value was null instead; any other value is a type error.
func (dec *jsonDecoder) array(depth int, want string, elem func(i int) error) (n int, null bool, err error) {
	switch dec.peek() {
	case 'n':
		return 0, true, dec.literal("null")
	case '[':
	default:
		return 0, false, dec.typeError(want)
	}
	if depth > maxJSONDepth {
		return 0, false, dec.errorf("exceeded max depth")
	}
	dec.off++
	dec.skipSpace()
	if dec.peek() == ']' {
		dec.off++
		return 0, false, nil
	}
	for {
		if err := elem(n); err != nil {
			return 0, false, err
		}
		n++
		dec.skipSpace()
		switch dec.peek() {
		case ',':
			dec.off++
			dec.skipSpace()
		case ']':
			dec.off++
			return n, false, nil
		default:
			return 0, false, dec.syntaxError("after array element")
		}
	}
}

// slot returns s with room for element i, growing it the way encoding/json
// does: elements between the old length and the capacity keep what the
// backing array held, so a repeated key decodes over its earlier value.
func slot[T any](s []T, i int) []T {
	if i >= cap(s) {
		var zero T
		s = append(s[:cap(s)], zero)
	}
	if i >= len(s) {
		s = s[:i+1]
	}
	return s
}

// trim ends the decode of an n-element array into s: null is a nil slice
// and [] a fresh empty one, as encoding/json leaves them.
func trim[T any](s []T, n int, null bool) []T {
	switch {
	case null:
		return nil
	case n == 0:
		return []T{}
	}
	return s[:n]
}

// ints decodes a list of ints into s.
func (dec *jsonDecoder) ints(s []int) ([]int, error) {
	n, null, err := dec.array(2, "int list", func(i int) error {
		s = slot(s, i)
		return dec.int(&s[i])
	})
	if err != nil {
		return nil, err
	}
	return trim(s, n, null), nil
}

// responses decodes the per-worker response lists into s.
func (dec *jsonDecoder) responses(s [][][2]int) ([][][2]int, error) {
	n, null, err := dec.array(2, "response lists", func(i int) error {
		s = slot(s, i)
		var err error
		s[i], err = dec.pairs(s[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return trim(s, n, null), nil
}

// pairs decodes one worker's [task, response] pairs into s.
func (dec *jsonDecoder) pairs(s [][2]int) ([][2]int, error) {
	n, null, err := dec.array(3, "pair list", func(i int) error {
		if s == nil {
			// Size a fresh list like the one before it, with 1/16 to
			// spare. Spare capacity holds zeros, as it would after
			// encoding/json's growth, and the sizes asked for never
			// total more than 17/16 of the pairs already decoded.
			s = make([][2]int, 0, dec.lastPairs+dec.lastPairs/16)
		}
		s = slot(s, i)
		return dec.pair(&s[i])
	})
	if err != nil {
		return nil, err
	}
	dec.lastPairs = n
	return trim(s, n, null), nil
}

// pair decodes a [task, response] pair into *p: extra elements are
// skipped, missing ones zeroed, and null leaves *p unchanged.
func (dec *jsonDecoder) pair(p *[2]int) error {
	n, null, err := dec.array(4, "pair", func(i int) error {
		if i < len(p) {
			return dec.int(&p[i])
		}
		return dec.skipValue(5)
	})
	if err != nil || null {
		return err
	}
	for ; n < len(p); n++ {
		p[n] = 0
	}
	return nil
}

// skipValue validates and consumes any JSON value; depth is the nesting
// level an array or object here would have.
func (dec *jsonDecoder) skipValue(depth int) error {
	switch c := dec.peek(); {
	case c == '"':
		_, _, err := dec.str()
		return err
	case c == '[':
		_, _, err := dec.array(depth, "array", func(int) error { return dec.skipValue(depth + 1) })
		return err
	case c == '{':
		return dec.object(depth, func([]byte, bool) error { return dec.skipValue(depth + 1) })
	case c == 't':
		return dec.literal("true")
	case c == 'f':
		return dec.literal("false")
	case c == 'n':
		return dec.literal("null")
	case c == '-' || isDigit(c):
		return dec.skipNumber()
	}
	return dec.syntaxError("looking for beginning of value")
}

// skipNumber consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (dec *jsonDecoder) skipNumber() error {
	if dec.peek() == '-' {
		dec.off++
	}
	switch c := dec.peek(); {
	case c == '0':
		dec.off++
	case '1' <= c && c <= '9':
		dec.skipDigits()
	default:
		return dec.syntaxError("in numeric literal")
	}
	if dec.peek() == '.' {
		dec.off++
		if !isDigit(dec.peek()) {
			return dec.syntaxError("after decimal point in numeric literal")
		}
		dec.skipDigits()
	}
	if c := dec.peek(); c == 'e' || c == 'E' {
		dec.off++
		if c := dec.peek(); c == '+' || c == '-' {
			dec.off++
		}
		if !isDigit(dec.peek()) {
			return dec.syntaxError("in exponent of numeric literal")
		}
		dec.skipDigits()
	}
	return nil
}

func (dec *jsonDecoder) skipDigits() {
	for dec.off < len(dec.data) && isDigit(dec.data[dec.off]) {
		dec.off++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
