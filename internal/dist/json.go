package dist

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/bitstr"
)

// Histogram decodes the JSON wire form of a histogram — one object mapping
// bitstrings to masses — straight into entries, without the string-keyed map
// encoding/json would build. It accepts exactly what json.Unmarshal into a
// map[string]float64 followed by FromHistogram accepts: JSON whitespace,
// escaped keys ("\u0030" is "0"), duplicate keys (the last one wins), null
// masses (read as 0), and numbers in the JSON grammar parsed by
// strconv.ParseFloat. Like that map, it merges the objects of repeated
// UnmarshalJSON calls, and null empties it — so a Histogram field decodes
// repeated struct members exactly as encoding/json decodes them into a map
// field.
//
// The zero value is an empty histogram. UnmarshalJSON reports JSON-level
// errors (syntax, a value that is not a number or null, a number out of
// float64 range); Entries reports everything FromHistogram would reject.
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
	p := scanner{data: data}
	p.space()
	if p.literal("null") {
		*h = Histogram{}
	} else if err := p.object(h); err != nil {
		return err
	}
	p.space()
	if p.i < len(p.data) {
		return p.syntax("after top-level value")
	}
	return nil
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

// scanner is a cursor over one JSON document.
type scanner struct {
	data []byte
	i    int
}

func (p *scanner) syntax(context string) error {
	if p.i >= len(p.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s", p.data[p.i], context)
}

// mismatch rejects a well-formed value of the wrong type, as encoding/json
// words it, or reports the syntax error if the value is not well-formed
// either.
func (p *scanner) mismatch(want string) error {
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

func (p *scanner) space() {
	i := p.i
	for i < len(p.data) && (p.data[i] == ' ' || p.data[i] == '\t' || p.data[i] == '\n' || p.data[i] == '\r') {
		i++
	}
	p.i = i
}

// next consumes c if the input continues with it.
func (p *scanner) next(c byte) bool {
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes word if the input continues with it.
func (p *scanner) literal(word string) bool {
	if len(p.data)-p.i >= len(word) && string(p.data[p.i:p.i+len(word)]) == word {
		p.i += len(word)
		return true
	}
	return false
}

// object decodes one {"bits": mass, ...} object into h.
func (p *scanner) object(h *Histogram) error {
	if !p.next('{') {
		return p.mismatch("map[string]float64")
	}
	p.space()
	if p.next('}') {
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
			// Sized as if every member were as short as this key allows,
			// so a compact body never regrows the slice, but never beyond
			// the outcomes the width can name.
			size := (len(p.data)-start)/(len(rawKey)+3) + 1
			if units < 32 {
				size = min(size, 1<<units)
			}
			h.es = make([]Entry, 0, size)
		}
		h.add(x, units, ok, v, rawKey)
		p.space()
		if p.next('}') {
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
func (p *scanner) key() (x bitstr.Bits, units int, ok bool, err error) {
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

// escape decodes the escape sequence after a backslash. Only the code point
// matters to a key, and only whether it is '0' or '1'.
func (p *scanner) escape() (rune, error) {
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
func (p *scanner) mass() (float64, error) {
	if p.literal("null") {
		return 0, nil
	}
	start := p.i
	minus := p.next('-')
	intStart := p.i
	switch {
	case p.next('0'):
	case p.i < len(p.data) && p.data[p.i] >= '1' && p.data[p.i] <= '9':
		p.digits()
	case minus:
		return 0, p.syntax("in numeric literal")
	default:
		return 0, p.mismatch("float64")
	}
	intEnd := p.i
	if p.next('.') && p.digits() == 0 {
		return 0, p.syntax("after decimal point in numeric literal")
	}
	if p.next('e') || p.next('E') {
		if !p.next('+') {
			p.next('-')
		}
		if p.digits() == 0 {
			return 0, p.syntax("in exponent of numeric literal")
		}
	}
	if p.i == intEnd && intEnd-intStart <= 15 {
		// A plain integer of at most 15 digits is below 2^53, so it is
		// exactly the float64 ParseFloat would return; counts take this
		// path.
		var u uint64
		for _, c := range p.data[intStart:intEnd] {
			u = u*10 + uint64(c-'0')
		}
		v := float64(u)
		if minus {
			v = -v
		}
		return v, nil
	}
	num := p.data[start:p.i]
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, fmt.Errorf("json: cannot unmarshal number %s into Go value of type float64", num)
	}
	return v, nil
}

// digits consumes a run of decimal digits and returns its length.
func (p *scanner) digits() int {
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
	for i, x := range d.sortedKeys() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '\n')
		dst = append(dst, prefix...)
		dst = append(dst, indent...)
		dst = append(dst, '"')
		dst = bitstr.AppendFormat(dst, x, d.n)
		dst = append(dst, `": `...)
		var err error
		if dst, err = appendFloat(dst, d.p[x]); err != nil {
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
