package dist

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/bitstr"
)

// Histogram decodes the JSON wire form of a histogram — one object mapping
// bitstrings to masses — straight into entries, without the string-keyed map
// encoding/json would build. It accepts exactly what json.Unmarshal into a
// map[string]float64 followed by FromHistogram accepts: JSON whitespace,
// escaped keys ("\u0030" is "0"), duplicate keys (the last one wins), null
// masses (read as 0), and numbers in the JSON grammar parsed by
// strconv.ParseFloat. Like that map, it merges the objects of repeated
// decodes, and null empties it — so a histogram member that a request
// repeats (Scanner.Histogram) decodes exactly as encoding/json decodes a
// repeated map field.
//
// The zero value is an empty histogram. Decoding reports JSON-level errors
// (syntax, a value that is not a number or null, a number out of float64
// range); Entries reports everything FromHistogram would reject.
type Histogram struct {
	es []Entry
	// keys counts the keys decoded since the last reset, valid or not (a
	// map would hold them all), so Empty tells {} from {"0x": 1}.
	keys int
	// width is the first key's length. sorted records that es is strictly
	// ascending, so a pre-sorted body is never sorted again.
	width  int
	sorted bool
	// bad is the first key that no histogram may hold; Entries reports
	// it, since the rest of the document must still parse.
	bad error
}

// Empty reports whether the histogram holds no keys at all.
func (h *Histogram) Empty() bool { return h.keys == 0 }

// Entries validates the decoded histogram and returns its entries in
// strictly ascending outcome order with their raw masses, plus the width.
// It rejects exactly what FromHistogram rejects, with its messages, so
// FromEntries of the result cannot fail. The slice aliases the Histogram's
// storage.
func (h *Histogram) Entries() ([]Entry, int, error) {
	if h.bad != nil {
		return nil, 0, h.bad
	}
	h.compact()
	if _, err := checkEntries(h.width, h.es); err != nil {
		return nil, 0, err
	}
	return h.es, h.width, nil
}

// compact sorts the entries by outcome and keeps the last of each run of
// equal outcomes. The sort is stable, so the one kept is the one decoded
// last: the map's last-wins.
func (h *Histogram) compact() {
	if h.sorted {
		return
	}
	slices.SortStableFunc(h.es, func(a, b Entry) int { return cmp.Compare(a.X, b.X) })
	out := h.es[:0]
	for i, e := range h.es {
		if i+1 == len(h.es) || h.es[i+1].X != e.X {
			out = append(out, e)
		}
	}
	h.es, h.sorted = out, true
}

// UnmarshalJSON merges one JSON histogram object into h, or empties h on
// null. Whitespace may surround the value; nothing else may follow it.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	p := NewScanner(data)
	if err := p.Histogram(h); err != nil {
		return err
	}
	return p.End()
}

// add records one decoded member. A key no histogram may hold is kept as
// h.bad rather than returned: syntax errors later in the document take
// precedence, as they do for encoding/json, and a later null may reset it.
func (h *Histogram) add(x bitstr.Bits, units int, ok bool, v float64, rawKey []byte) {
	h.keys++
	if h.keys == 1 {
		h.width, h.sorted = units, true
	}
	switch {
	case h.bad != nil:
		return
	case units != h.width:
		h.bad = errMixedWidth(h.width, units)
		return
	case units < 1 || units > bitstr.MaxBits:
		// Checked before the characters, as FromHistogram does, so an
		// oversized key is never quoted back whole.
		h.bad = errWidth(units)
		return
	case !ok:
		h.bad = keyError(rawKey)
		return
	}
	if !h.sorted && len(h.es) == cap(h.es) {
		// Fold repeated outcomes before growing, so the entries stay
		// within a few times the distinct outcomes however often a body
		// repeats them out of order. Growing whenever that frees less
		// than half keeps the sorts amortized to O(log n) per member.
		h.compact()
		if len(h.es) > cap(h.es)/2 {
			h.es = slices.Grow(h.es, len(h.es))
		}
	}
	if n := len(h.es); n > 0 && x <= h.es[n-1].X {
		if x == h.es[n-1].X && h.sorted {
			h.es[n-1].P = v
			return
		}
		h.sorted = false
	}
	h.es = append(h.es, Entry{X: x, P: v})
}

// keyError is bitstr.Parse's error for a key that is not a bitstring, on
// the key as encoding/json would have unescaped it (cold path).
func keyError(rawKey []byte) error {
	var k string
	if err := json.Unmarshal(rawKey, &k); err != nil {
		return err
	}
	if _, err := bitstr.Parse(k); err != nil {
		return err
	}
	return fmt.Errorf("invalid key %q", k)
}

// Scanner is a cursor over one JSON document in which histograms are
// embedded. A decoder walks the document around them (a request wrapper, a
// batch envelope) with Object, Array and Skip, and decodes each histogram in
// place with Histogram, so the body is read once and no histogram is copied
// out first. Together the methods accept exactly the documents
// encoding/json accepts, nesting depth included.
//
// A method's error is either a syntax error or, for a well-formed value of
// the wrong type, a type error. A copy of the Scanner is a saved position: a
// caller that must tell the two errors apart (a batch keeps the type errors
// of its members) restores the copy and Skips the value, which fails only on
// syntax.
type Scanner struct {
	data []byte
	i    int
	// depth counts the objects and arrays open at the cursor.
	depth int
}

// maxDepth is encoding/json's nesting limit: a document may open 10000
// objects and arrays inside each other, and no more.
const maxDepth = 10000

// NewScanner returns a Scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// End checks that only whitespace follows the cursor.
func (p *Scanner) End() error {
	p.space()
	if p.i < len(p.data) {
		return p.syntax("after top-level value")
	}
	return nil
}

// Histogram decodes the value at the cursor into h, as h.UnmarshalJSON would
// decode it alone: an object is merged into h, and null empties it.
func (p *Scanner) Histogram(h *Histogram) error {
	p.space()
	if p.literal("null") {
		*h = Histogram{}
		return nil
	}
	return p.object(h)
}

// Object steps into the object at the cursor and calls member once per
// member, with the cursor on the member's value, which member must consume
// (with Histogram, Object, Array or Skip). key is the member's name as
// written, quotes and escapes included; KeyIs matches it. Null is read as an
// object with no members; any other value is a type error.
func (p *Scanner) Object(member func(key []byte) error) error {
	p.space()
	if p.literal("null") {
		return nil
	}
	if p.i >= len(p.data) || p.data[p.i] != '{' {
		return p.mismatch("object")
	}
	if err := p.open(); err != nil {
		return err
	}
	if p.next('}') {
		p.depth--
		return nil
	}
	for {
		if p.i >= len(p.data) || p.data[p.i] != '"' {
			return p.syntax("looking for beginning of object key string")
		}
		start := p.i
		if _, _, _, err := p.key(); err != nil {
			return err
		}
		key := p.data[start:p.i]
		p.space()
		if !p.next(':') {
			return p.syntax("after object key")
		}
		if err := member(key); err != nil {
			return err
		}
		p.space()
		if p.next('}') {
			p.depth--
			return nil
		}
		if !p.next(',') {
			return p.syntax("after object key:value pair")
		}
		p.space()
	}
}

// Array steps into the array at the cursor and calls elem once per element,
// with the cursor on the element, which elem must consume. Null is read as
// an empty array; any other value is a type error.
func (p *Scanner) Array(elem func() error) error {
	p.space()
	if p.literal("null") {
		return nil
	}
	if p.i >= len(p.data) || p.data[p.i] != '[' {
		return p.mismatch("array")
	}
	if err := p.open(); err != nil {
		return err
	}
	if p.next(']') {
		p.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		p.space()
		if p.next(']') {
			p.depth--
			return nil
		}
		if !p.next(',') {
			return p.syntax("after array element")
		}
	}
}

// Skip steps over the value at the cursor, checking its syntax, and returns
// its bytes.
func (p *Scanner) Skip() ([]byte, error) {
	p.space()
	start := p.i
	err := p.value()
	return p.data[start:p.i], err
}

// value steps over one value of any type.
func (p *Scanner) value() error {
	p.space()
	if p.i < len(p.data) {
		switch c := p.data[p.i]; {
		case c == '{':
			return p.Object(func([]byte) error { return p.value() })
		case c == '[':
			return p.Array(p.value)
		case c == '"':
			_, _, _, err := p.key()
			return err
		case c == '-' || c-'0' <= 9:
			_, err := p.number()
			return err
		case p.literal("true"), p.literal("false"), p.literal("null"):
			return nil
		}
	}
	return p.syntax("looking for beginning of value")
}

// open steps into the object or array whose bracket is at the cursor.
func (p *Scanner) open() error {
	if p.depth == maxDepth {
		return errors.New("exceeded max depth")
	}
	p.i++
	p.depth++
	p.space()
	return nil
}

// KeyIs reports whether key, an object key as Object passes it, names the
// field name the way encoding/json matches a key to a struct field: after
// unescaping, equal under Unicode case folding.
func KeyIs(key []byte, name string) bool {
	raw := key[1 : len(key)-1]
	if bytes.IndexByte(raw, '\\') < 0 {
		return bytes.EqualFold(raw, []byte(name))
	}
	// Escaped keys are rare: unescape, then compare.
	var buf [32]byte
	unescaped := buf[:0]
	p := Scanner{data: key, i: 1}
	for p.i < len(key)-1 {
		if c := key[p.i]; c != '\\' {
			unescaped = append(unescaped, c)
			p.i++
			continue
		}
		p.i++
		short := key[p.i] != 'u'
		r, err := p.escape()
		if err != nil {
			return false
		}
		if i := strings.IndexRune("bfnrt", r); short && i >= 0 {
			r = rune("\b\f\n\r\t"[i]) // escape returns a short escape's letter
		}
		unescaped = utf8.AppendRune(unescaped, r)
	}
	return bytes.EqualFold(unescaped, []byte(name))
}

func (p *Scanner) syntax(context string) error {
	if p.i >= len(p.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s", p.data[p.i], context)
}

// mismatch rejects a well-formed value of the wrong type, as encoding/json
// words it, or reports the syntax error if the value is not well-formed
// either.
func (p *Scanner) mismatch(want string) error {
	got := ""
	if p.i < len(p.data) {
		switch c := p.data[p.i]; {
		case c == '{':
			got = "object"
		case c == '[':
			got = "array"
		case c == '"':
			got = "string"
		case c == 't', c == 'f':
			got = "bool"
		case c == '-', c >= '0' && c <= '9':
			got = "number"
		}
	}
	if got == "" {
		return p.syntax("looking for beginning of value")
	}
	return fmt.Errorf("json: cannot unmarshal %s into Go value of type %s", got, want)
}

func (p *Scanner) space() {
	i := p.i
	for i < len(p.data) && (p.data[i] == ' ' || p.data[i] == '\t' || p.data[i] == '\n' || p.data[i] == '\r') {
		i++
	}
	p.i = i
}

// next consumes c if the input continues with it.
func (p *Scanner) next(c byte) bool {
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes word if the input continues with it.
func (p *Scanner) literal(word string) bool {
	if len(p.data)-p.i >= len(word) && string(p.data[p.i:p.i+len(word)]) == word {
		p.i += len(word)
		return true
	}
	return false
}

// object decodes one {"bits": mass, ...} object into h.
func (p *Scanner) object(h *Histogram) error {
	if p.i >= len(p.data) || p.data[p.i] != '{' {
		return p.mismatch("map[string]float64")
	}
	if err := p.open(); err != nil {
		return err
	}
	if p.next('}') {
		p.depth--
		return nil
	}
	for {
		if p.i >= len(p.data) || p.data[p.i] != '"' {
			return p.syntax("looking for beginning of object key string")
		}
		start := p.i
		x, units, ok, err := p.key()
		if err != nil {
			return err
		}
		rawKey := p.data[start:p.i]
		p.space()
		if !p.next(':') {
			return p.syntax("after object key")
		}
		p.space()
		v, err := p.mass()
		if err != nil {
			return err
		}
		if h.es == nil && ok {
			// Sized as if every member up to the first '}' were as short
			// as this key allows, so a compact object never regrows the
			// slice, but never beyond the outcomes the width can name. The
			// first '}' ends this object unless a key holds one, which
			// only makes the estimate smaller.
			end := bytes.IndexByte(p.data[start:], '}')
			if end < 0 {
				end = len(p.data) - start
			}
			size := end/(len(rawKey)+3) + 1
			if units < 32 {
				size = min(size, 1<<units)
			}
			h.es = make([]Entry, 0, size)
		}
		h.add(x, units, ok, v, rawKey)
		p.space()
		if p.next('}') {
			p.depth--
			return nil
		}
		if !p.next(',') {
			return p.syntax("after object key:value pair")
		}
		p.space()
	}
}

// key decodes one object key string, returning its outcome, its length in
// characters, and whether every character is a '0' or a '1'.
func (p *Scanner) key() (x bitstr.Bits, units int, ok bool, err error) {
	ok = true
	p.i++ // the opening quote
	for p.i < len(p.data) {
		// The common all-bitstring run, kept in registers.
		i := p.i
		for i < len(p.data) && p.data[i]-'0' <= 1 {
			x = x<<1 | bitstr.Bits(p.data[i]-'0')
			i++
		}
		units += i - p.i
		p.i = i
		if i == len(p.data) {
			break
		}
		c := p.data[p.i]
		p.i++
		switch {
		case c == '"':
			return x, units, ok, nil
		case c == '\\':
			r, err := p.escape()
			if err != nil {
				return 0, 0, false, err
			}
			if r == '0' || r == '1' {
				x = x<<1 | bitstr.Bits(r-'0')
			} else {
				ok = false
			}
		case c < 0x20:
			p.i--
			return 0, 0, false, p.syntax("in string literal")
		default:
			ok = false
		}
		units++
	}
	return 0, 0, false, p.syntax("")
}

// escape decodes the escape sequence after a backslash: a \uXXXX escape's
// code point, or a two-character escape's second character as written ('n'
// for \n). A histogram key needs only to tell '0' and '1' from the rest.
func (p *Scanner) escape() (rune, error) {
	if p.i >= len(p.data) {
		return 0, p.syntax("")
	}
	c := p.data[p.i]
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		p.i++
		return rune(c), nil
	case 'u':
		p.i++
		var r rune
		for range 4 {
			if p.i >= len(p.data) {
				return 0, p.syntax("")
			}
			d := p.data[p.i]
			switch {
			case d >= '0' && d <= '9':
				d -= '0'
			case d >= 'a' && d <= 'f':
				d -= 'a' - 10
			case d >= 'A' && d <= 'F':
				d -= 'A' - 10
			default:
				return 0, p.syntax(`in \u hexadecimal character escape`)
			}
			r = r<<4 | rune(d)
			p.i++
		}
		return r, nil
	}
	return 0, p.syntax("in string escape code")
}

// mass decodes one member value: null (0) or a number in the JSON grammar.
func (p *Scanner) mass() (float64, error) {
	if p.literal("null") {
		return 0, nil
	}
	if p.i >= len(p.data) || p.data[p.i] != '-' && p.data[p.i]-'0' > 9 {
		return 0, p.mismatch("float64")
	}
	start := p.i
	digits, err := p.number()
	if err != nil {
		return 0, err
	}
	num := p.data[start:p.i]
	if digits > 0 && digits <= 15 {
		// A plain integer of at most 15 digits is below 2^53, so it is
		// exactly the float64 ParseFloat would return; counts take this
		// path.
		var u uint64
		for _, c := range num[len(num)-digits:] {
			u = u*10 + uint64(c-'0')
		}
		v := float64(u)
		if num[0] == '-' {
			v = -v
		}
		return v, nil
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, fmt.Errorf("json: cannot unmarshal number %s into Go value of type float64", num)
	}
	return v, nil
}

// number steps over a number in the JSON grammar, the cursor on its '-' or
// first digit. For a plain integer it returns its count of digits, and 0
// when a fraction or an exponent follows them.
func (p *Scanner) number() (int, error) {
	p.next('-')
	intStart := p.i
	switch {
	case p.next('0'):
	case p.i < len(p.data) && p.data[p.i]-'1' <= 8:
		p.digits()
	default:
		return 0, p.syntax("in numeric literal")
	}
	digits := p.i - intStart
	if p.next('.') {
		digits = 0
		if p.digits() == 0 {
			return 0, p.syntax("after decimal point in numeric literal")
		}
	}
	if p.next('e') || p.next('E') {
		digits = 0
		if !p.next('+') {
			p.next('-')
		}
		if p.digits() == 0 {
			return 0, p.syntax("in exponent of numeric literal")
		}
	}
	return digits, nil
}

// digits consumes a run of decimal digits and returns its length.
func (p *Scanner) digits() int {
	start, i := p.i, p.i
	for i < len(p.data) && p.data[i]-'0' <= 9 {
		i++
	}
	p.i = i
	return i - start
}

// AppendJSON appends d in the histogram wire form, byte for byte as
// json.MarshalIndent(ToHistogram(d), prefix, indent) renders it: members on
// lines starting prefix+indent in ascending outcome order, the closing
// brace on a line starting prefix, masses formatted as encoding/json
// formats a float64. A non-finite mass fails with encoding/json's error.
func AppendJSON(dst []byte, d *Dist, prefix, indent string) ([]byte, error) {
	if d.Len() == 0 {
		return append(dst, "{}"...), nil
	}
	dst = append(dst, '{')
	for i, e := range d.es {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '\n')
		dst = append(dst, prefix...)
		dst = append(dst, indent...)
		dst = append(dst, '"')
		dst = bitstr.AppendFormat(dst, e.X, d.n)
		dst = append(dst, `": `...)
		var err error
		if dst, err = appendFloat(dst, e.P); err != nil {
			return dst, err
		}
	}
	dst = append(dst, '\n')
	dst = append(dst, prefix...)
	return append(dst, '}'), nil
}

// appendFloat formats f as encoding/json does: the shortest representation
// in 'f' form, or 'e' form below 1e-6 or from 1e21 up with a one-digit
// negative exponent unpadded (e-7, not e-07).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
