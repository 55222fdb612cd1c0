// Package jsondec reads a JSON document in one pass over its bytes, for the
// hand-written decoders of the serving request: server.OptimizeRequest,
// plan.Library and plan.Node.
//
// Each read consumes one value and stores it the way encoding/json stores
// that value into a Go variable of the matching type, or fails where
// encoding/json fails:
//
//   - syntax is RFC 8259 as encoding/json's scanner accepts it, skipped
//     values included, nested at most 10,000 arrays and objects deep;
//   - null leaves a scalar unchanged (the caller handles null for pointers,
//     maps and slices through Null);
//   - integers take integer literals in range only, so 1.0, 1e2 and
//     99999999999999999999 are rejected; floats go through
//     strconv.ParseFloat and are rejected out of range;
//   - strings without escapes or non-ASCII bytes are sliced straight from
//     the document; any other string is decoded by encoding/json itself,
//     so escapes, surrogate pairs and invalid UTF-8 (which becomes U+FFFD)
//     come out identical;
//   - object keys select a struct field through Match, exactly and then
//     case-insensitively with Unicode folding.
//
// Errors are *Error values naming the byte offset and, once the callers
// have added it on the way out (Field, Index, Key), the field path.
package jsondec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: the 10,001st open array or
// object is an error.
const maxDepth = 10000

// Decoder reads values from one in-memory JSON document.
type Decoder struct {
	data  []byte
	off   int
	depth int
}

// New returns a Decoder positioned at the start of data.
func New(data []byte) *Decoder { return &Decoder{data: data} }

// Error is a decoding failure at byte Offset of the document.
type Error struct {
	Offset int
	path   []string // innermost segment first
	msg    string
}

// Error formats the failure as `library["m3"][2].W: 1.5 is not an integer
// (offset 57)`.
func (e *Error) Error() string {
	var b strings.Builder
	for i := len(e.path) - 1; i >= 0; i-- {
		if i < len(e.path)-1 && !strings.HasPrefix(e.path[i], "[") {
			b.WriteByte('.')
		}
		b.WriteString(e.path[i])
	}
	if b.Len() > 0 {
		b.WriteString(": ")
	}
	fmt.Fprintf(&b, "%s (offset %d)", e.msg, e.Offset)
	return b.String()
}

// Field, Index and Key add one segment (a struct field, an array index or
// a map key) to the path of err, which the value at that segment returned.
// Other errors pass through unchanged.
func Field(err error, name string) error { return within(err, name) }

// Index adds an array index to the path of err; see Field.
func Index(err error, i int) error { return within(err, "["+strconv.Itoa(i)+"]") }

// Key adds a map key to the path of err; see Field.
func Key(err error, key string) error { return within(err, "["+strconv.Quote(key)+"]") }

func within(err error, seg string) error {
	if e, ok := err.(*Error); ok {
		e.path = append(e.path, seg)
	}
	return err
}

func (d *Decoder) errorf(format string, args ...any) error {
	return &Error{Offset: d.off, msg: fmt.Sprintf(format, args...)}
}

// syntaxError describes the unexpected byte at d.off, or the end of input.
func (d *Decoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of JSON input")
	}
	return d.errorf("invalid character %s %s", quoteChar(d.data[d.off]), context)
}

func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (d *Decoder) ws() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// value returns the first byte of the next value, or an error when no
// value can start there.
func (d *Decoder) value() (byte, error) {
	c := d.ws()
	switch {
	case c == '{', c == '[', c == '"', c == 't', c == 'f', c == 'n', c == '-', '0' <= c && c <= '9':
		return c, nil
	}
	return 0, d.syntaxError("looking for beginning of value")
}

// typeError reports a value of another JSON type than want, or the syntax
// error when no value starts at all.
func (d *Decoder) typeError(want string) error {
	c, err := d.value()
	if err != nil {
		return err
	}
	found := "number"
	switch c {
	case '{':
		found = "object"
	case '[':
		found = "array"
	case '"':
		found = "string"
	case 't', 'f':
		found = "bool"
	case 'n':
		found = "null"
	}
	return d.errorf("expected %s, found %s", want, found)
}

// End checks that only whitespace follows the value just read.
func (d *Decoder) End() error {
	if d.ws(); d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

// Null consumes the next value if it is null and reports whether it did.
func (d *Decoder) Null() bool {
	if d.ws() == 'n' && len(d.data)-d.off >= 4 && string(d.data[d.off:d.off+4]) == "null" {
		d.off += 4
		return true
	}
	return false
}

// literal consumes the keyword lit (true, false or null) at d.off.
func (d *Decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// Begin consumes the opening bracket of the next value, which must be an
// object (open '{') or an array (open '[').
func (d *Decoder) Begin(open byte) error {
	if d.ws() != open {
		if open == '{' {
			return d.typeError("object")
		}
		return d.typeError("array")
	}
	d.off++
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	return nil
}

// Member advances to member i (counting from 0) of the object Begin('{')
// opened: it consumes the comma before it, its key and the colon, and
// returns the unescaped key, valid until the next read. ok is false once
// the closing brace has been consumed.
func (d *Decoder) Member(i int) (key []byte, ok bool, err error) {
	c := d.ws()
	switch {
	case c == '}':
		d.off++
		d.depth--
		return nil, false, nil
	case i > 0 && c != ',':
		return nil, false, d.syntaxError("after object key:value pair")
	case i > 0:
		d.off++
		c = d.ws()
	}
	if c != '"' {
		return nil, false, d.syntaxError("looking for beginning of object key string")
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	if d.ws() != ':' {
		return nil, false, d.syntaxError("after object key")
	}
	d.off++
	return key, true, nil
}

// Elem advances to element i (counting from 0) of the array Begin('[')
// opened, consuming the comma before it. ok is false once the closing
// bracket has been consumed.
func (d *Decoder) Elem(i int) (ok bool, err error) {
	c := d.ws()
	switch {
	case c == ']':
		d.off++
		d.depth--
		return false, nil
	case i > 0 && c != ',':
		return false, d.syntaxError("after array element")
	case i > 0:
		d.off++
	}
	return true, nil
}

// Match returns the name in names that key selects, the way encoding/json
// matches a key to a struct field: an exact match, else a case-insensitive
// one under Unicode folding (so a Kelvin sign matches k). It returns ""
// when no name matches. Names must be ASCII.
func Match(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	var buf [32]byte
	folded := appendFolded(buf[:0], key)
	for _, n := range names {
		if len(n) == len(folded) && foldedEqual(folded, n) {
			return n
		}
	}
	return ""
}

// appendFolded folds s as encoding/json folds keys and field names: ASCII
// letters to upper case, any other rune r to ToUpper(ToLower(r)).
func appendFolded(out, s []byte) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		out = utf8.AppendRune(out, unicode.ToUpper(unicode.ToLower(r)))
		i += n
	}
	return out
}

// foldedEqual reports whether folded equals the ASCII name folded.
func foldedEqual(folded []byte, name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if folded[i] != c {
			return false
		}
	}
	return true
}

// Skip consumes the next value, whatever its type, checking its syntax.
func (d *Decoder) Skip() error {
	c, err := d.value()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		if err := d.Begin('{'); err != nil {
			return err
		}
		for i := 0; ; i++ {
			_, ok, err := d.Member(i)
			if err != nil || !ok {
				return err
			}
			if err := d.Skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.Begin('['); err != nil {
			return err
		}
		for i := 0; ; i++ {
			ok, err := d.Elem(i)
			if err != nil || !ok {
				return err
			}
			if err := d.Skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.strEnd(d.off + 1)
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, _, err = d.number()
	return err
}

// Bytes reads a string value and returns its unescaped bytes, valid until
// the next read.
func (d *Decoder) Bytes() ([]byte, error) {
	if d.ws() != '"' {
		return nil, d.typeError("string")
	}
	return d.str()
}

// String reads a string into *p; null leaves *p unchanged.
func (d *Decoder) String(p *string) error {
	if d.Null() {
		return nil
	}
	b, err := d.Bytes()
	if err != nil {
		return err
	}
	*p = string(b)
	return nil
}

// str reads the string token at d.off.
func (d *Decoder) str() ([]byte, error) {
	start := d.off + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			end, err := d.strEnd(start)
			if err != nil {
				return nil, err
			}
			var s string
			if err := json.Unmarshal(d.data[start-1:end], &s); err != nil {
				return nil, &Error{Offset: start - 1, msg: err.Error()}
			}
			return []byte(s), nil
		}
	}
	d.off = len(d.data)
	return nil, d.syntaxError("")
}

// strEnd checks the syntax of the string whose contents start at start,
// moves past its closing quote and returns that offset.
func (d *Decoder) strEnd(start int) (int, error) {
	for d.off = start; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.off, nil
		case c < 0x20:
			return 0, d.syntaxError("in string literal")
		case c == '\\':
			d.off++
			if d.off >= len(d.data) {
				return 0, d.syntaxError("")
			}
			switch d.data[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if d.off++; d.off >= len(d.data) || !isHex(d.data[d.off]) {
						return 0, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
			default:
				return 0, d.syntaxError("in string escape code")
			}
		}
	}
	return 0, d.syntaxError("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number reads a number token, reporting whether it is an integer literal
// (no fraction, no exponent).
func (d *Decoder) number() (tok []byte, integer bool, err error) {
	start := d.off
	if d.off < len(d.data) && d.data[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(d.data) && d.data[d.off] == '0':
		d.off++
	case d.off < len(d.data) && '1' <= d.data[d.off] && d.data[d.off] <= '9':
		d.digits()
	default:
		return nil, false, d.syntaxError("in numeric literal")
	}
	integer = true
	if d.off < len(d.data) && d.data[d.off] == '.' {
		integer = false
		if d.off++; d.digits() == 0 {
			return nil, false, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		integer = false
		if d.off++; d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if d.digits() == 0 {
			return nil, false, d.syntaxError("in exponent of numeric literal")
		}
	}
	return d.data[start:d.off], integer, nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *Decoder) digits() int {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off - start
}

// integer reads an integer literal that fits in a signed bits-bit integer.
func (d *Decoder) integer(bits int) (int64, error) {
	if c := d.ws(); c != '-' && (c < '0' || c > '9') {
		return 0, d.typeError("integer")
	}
	start := d.off
	tok, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		d.off = start
		return 0, d.errorf("%s is not an integer", tok)
	}
	neg := tok[0] == '-'
	digits := tok
	if neg {
		digits = tok[1:]
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	var u uint64
	// 19 digits always fit in a uint64; a 20th means the value is out of
	// range for every integer width encoding/json decodes into here.
	if len(digits) <= 19 {
		for _, c := range digits {
			u = u*10 + uint64(c-'0')
		}
	}
	if len(digits) > 19 || u > limit {
		d.off = start
		return 0, d.errorf("%s is out of range", tok)
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// Int reads an integer into *p; null leaves *p unchanged.
func (d *Decoder) Int(p *int) error {
	if d.Null() {
		return nil
	}
	v, err := d.integer(strconv.IntSize)
	if err == nil {
		*p = int(v)
	}
	return err
}

// Int64 reads an integer into *p; null leaves *p unchanged.
func (d *Decoder) Int64(p *int64) error {
	if d.Null() {
		return nil
	}
	v, err := d.integer(64)
	if err == nil {
		*p = v
	}
	return err
}

// Float64 reads a number into *p; null leaves *p unchanged.
func (d *Decoder) Float64(p *float64) error {
	if d.Null() {
		return nil
	}
	if c := d.ws(); c != '-' && (c < '0' || c > '9') {
		return d.typeError("number")
	}
	start := d.off
	tok, _, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.off = start
		return d.errorf("%s is out of range", tok)
	}
	*p = v
	return nil
}

// Bool reads true or false into *p; null leaves *p unchanged.
func (d *Decoder) Bool(p *bool) error {
	if d.Null() {
		return nil
	}
	switch d.ws() {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	}
	return d.typeError("bool")
}
