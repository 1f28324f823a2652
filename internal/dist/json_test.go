package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitstr"
)

// referenceParse is what Histogram replaces: encoding/json into a map, then
// FromHistogram.
func referenceParse(body []byte) (*Dist, int, error) {
	var m map[string]float64
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, 0, err
	}
	return FromHistogram(m)
}

func bitIdentical(a, b *Dist) bool {
	if a.NumBits() != b.NumBits() || a.Len() != b.Len() ||
		math.Float64bits(a.Total()) != math.Float64bits(b.Total()) {
		return false
	}
	for i, e := range a.Entries() {
		f := b.Entries()[i]
		if e.X != f.X || math.Float64bits(e.P) != math.Float64bits(f.P) {
			return false
		}
	}
	return true
}

// parse decodes and validates one histogram object.
func parse(body []byte) ([]Entry, int, error) {
	var h Histogram
	if err := h.UnmarshalJSON(body); err != nil {
		return nil, 0, err
	}
	return h.Entries()
}

// checkAgainstReference asserts parse + FromEntries agrees with
// referenceParse on body: same verdict, and on acceptance the same width
// and a bit-identical distribution.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	es, n, err := parse(body)
	ref, refN, refErr := referenceParse(body)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q: scanner err %v, reference err %v", body, err, refErr)
	}
	if err != nil {
		return
	}
	d, err := FromEntries(n, es)
	if err != nil {
		t.Fatalf("%q: FromEntries: %v", body, err)
	}
	if n != refN || !bitIdentical(d, ref) {
		t.Fatalf("%q: got %v (n=%d), reference %v (n=%d)", body, d, n, ref, refN)
	}
}

func TestHistogramMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{"0011": 1, "1100": 3}`,
		`{"1100": 3, "0011": 1}`,
		" \t\n\r{ \"01\" : 2 ,\"10\":\t1 } \n",
		`{"\u0030\u0031": 1, "10": 1}`,
		`{"0\u0031": 1, "01": 5}`,
		`{"01": 1, "01": 2, "10": 3, "01": 4}`,
		`{"10": 1, "01": 2, "10": 0}`,
		`{"01": null, "10": 1}`,
		`{"01": -0, "10": 1}`,
		`{"0": 5e-324, "1": 1e-7}`,
		`{"0": 1E2, "1": 2.5e+1, "00": 1}`,
		`{"0": 1e-400, "1": 1}`,
		`{"0": 123456789012345, "1": 1234567890123456789}`,
		`{"0": -1, "0": 1}`,
		`{"` + strings.Repeat("1", 64) + `": 1}`,
		`{"` + strings.Repeat("1", 65) + `": 1}`,
		`{"0": 1e400}`,
		`{"0": 01}`, `{"0": 1.}`, `{"0": .5}`, `{"0": -}`, `{"0": +1}`, `{"0": 1e}`,
		`{"0": "1"}`, `{"0": true}`, `{"0": [1]}`, `{"0": {}}`, `{"0": nul}`,
		`{"0": 1,}`, `{"0" 1}`, `{0: 1}`, `{"0": 1`, `{"0": 1} x`, `{"0": 1}{}`,
		`{"0\x01": 1}`, `{"0\q": 1}`, `{"\u00": 1}`, "{\"0\xff\": 1}",
		`{"0x": 1}`, `{"": 1}`, `{"01": 1, "011": 1}`, `{"01": 0}`, `{"01": -1}`,
		`{}`, `null`, `[]`, `1`, `"x"`, ``, ` `,
	} {
		checkAgainstReference(t, []byte(body))
	}
}

// TestHistogramRandomBodies: shuffled members with duplicates, at widths
// from 1 to 64 bits. At the narrow widths the entries fill their capacity
// (2^width) and are compacted while decoding.
func TestHistogramRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := []int{1, 3, 12, 20, 40, 64}[trial%6]
		var sb strings.Builder
		sb.WriteByte('{')
		for i, m := 0, 1+rng.Intn(300); i < m; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			x := bitstr.Bits(rng.Uint64()) & bitstr.AllOnes(n)
			if rng.Intn(4) == 0 {
				x &= 0xff // collide on the low byte, so duplicates recur
			}
			fmt.Fprintf(&sb, "%q: %v", bitstr.Format(x, n), rng.Intn(50))
		}
		sb.WriteByte('}')
		checkAgainstReference(t, []byte(sb.String()))
	}
}

// TestHistogramCompactsRepeats: a body that repeats a few outcomes out of
// order, member after member, decodes in memory bounded by its distinct
// outcomes, not by its members, and still keeps the last value of each.
func TestHistogramCompactsRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 4} {
		const members = 1 << 18
		distinct := 1 << n
		last := make([]float64, distinct)
		body := []byte{'{'}
		var order []int
		for i := 0; i < members; i++ {
			if i%distinct == 0 {
				order = rng.Perm(distinct)
				if n == 1 {
					order = []int{0, 1} // {"0":…,"1":…,"0":…,…}
				}
			}
			if i > 0 {
				body = append(body, ',')
			}
			x := order[i%distinct]
			last[x] = float64(i % 7)
			body = append(body, '"')
			body = bitstr.AppendFormat(body, bitstr.Bits(x), n)
			body = append(body, `":`...)
			body = strconv.AppendInt(body, int64(i%7), 10)
		}
		body = append(body, '}')

		var h Histogram
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := h.UnmarshalJSON(body)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Holding every member would take 4 MiB of entries.
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Errorf("n=%d: decoding %d members allocated %d bytes", n, members, got)
		}
		es, w, err := h.Entries()
		if err != nil || w != n || len(es) != distinct || cap(es) > 4*distinct {
			t.Fatalf("n=%d: %d entries (cap %d), width %d, err %v", n, len(es), cap(es), w, err)
		}
		for x, e := range es {
			if e != (Entry{X: bitstr.Bits(x), P: last[x]}) {
				t.Fatalf("n=%d: entry %d = %v, want P=%v", n, x, e, last[x])
			}
		}
	}
}

// TestHistogramMerge: repeated UnmarshalJSON calls merge like a map field —
// later values win — and null empties the histogram.
func TestHistogramMerge(t *testing.T) {
	var h Histogram
	for _, part := range []string{`{"01": 1}`, `{"10": 2, "01": 3}`} {
		if err := h.UnmarshalJSON([]byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	es, n, err := h.Entries()
	if err != nil || n != 2 || len(es) != 2 || es[0] != (Entry{X: 0b01, P: 3}) || es[1] != (Entry{X: 0b10, P: 2}) {
		t.Fatalf("merged = %v n=%d err=%v", es, n, err)
	}
	var reset Histogram
	for _, part := range []string{`{"0x": -1}`, `null`, `{"1": 1}`} {
		if err := reset.UnmarshalJSON([]byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	if es, n, err := reset.Entries(); err != nil || n != 1 || len(es) != 1 {
		t.Fatalf("after null: %v n=%d err=%v", es, n, err)
	}
	var empty Histogram
	if err := empty.UnmarshalJSON([]byte(`{}`)); err != nil || !empty.Empty() {
		t.Fatalf("{}: err %v, empty %v", err, empty.Empty())
	}
	var invalid Histogram
	if err := invalid.UnmarshalJSON([]byte(`{"0x": 1}`)); err != nil || invalid.Empty() {
		t.Fatalf(`{"0x": 1}: err %v, empty %v`, err, invalid.Empty())
	}
}

func TestFromEntriesRejects(t *testing.T) {
	for name, c := range map[string]struct {
		n  int
		es []Entry
	}{
		"empty":      {2, nil},
		"width 0":    {0, []Entry{{0, 1}}},
		"width 65":   {65, []Entry{{0, 1}}},
		"too wide":   {2, []Entry{{0b100, 1}}},
		"unsorted":   {2, []Entry{{2, 1}, {1, 1}}},
		"duplicate":  {2, []Entry{{1, 1}, {1, 1}}},
		"negative":   {2, []Entry{{1, -1}, {2, 3}}},
		"zero total": {2, []Entry{{1, 0}}},
	} {
		if _, err := FromEntries(c.n, c.es); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAppendJSONMatchesMarshalIndent: the renderer is byte-identical to
// encoding/json's rendering of ToHistogram at any prefix and indent, across
// widths and the masses where float formatting changes form.
func TestAppendJSONMatchesMarshalIndent(t *testing.T) {
	masses := []float64{0, 5e-324, 1e-7, 9.99999e-7, 1e-6, 0.1, 1 / 3.0, 1, 123456789, 1e20, 1e21, 2.5e300}
	for _, n := range []int{1, 12, 20, 64} {
		b := NewBuilder(n)
		outcomes := []bitstr.Bits{0, bitstr.AllOnes(n), bitstr.AllOnes(n) / 3, 1}
		for i, m := range masses {
			b.Set(outcomes[i%len(outcomes)]^bitstr.Bits(i)&bitstr.AllOnes(n), m)
		}
		d := b.Dist()
		for _, pi := range [][2]string{{"", " "}, {"  ", " "}, {"", "\t"}, {">", "  "}} {
			want, err := json.MarshalIndent(ToHistogram(d), pi[0], pi[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendJSON([]byte("x"), d, pi[0], pi[1])
			if err != nil || string(got[1:]) != string(want) {
				t.Fatalf("n=%d prefix %q indent %q:\n got %q\nwant %q", n, pi[0], pi[1], got[1:], want)
			}
		}
	}
	if got, err := AppendJSON(nil, NewBuilder(3).Dist(), "", " "); err != nil || string(got) != "{}" {
		t.Errorf("empty: %q %v", got, err)
	}
	bld := NewBuilder(1)
	bld.Set(1, math.Inf(1))
	inf := bld.Dist()
	if _, err := AppendJSON(nil, inf, "", " "); err == nil {
		t.Error("+Inf rendered")
	}
}
