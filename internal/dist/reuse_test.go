package dist

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstr"
)

func TestDistReset(t *testing.T) {
	d := New(4)
	d.Set(0b0011, 0.25)
	d.Set(0b1100, 0.75)
	if got := d.Outcomes(); len(got) != 2 {
		t.Fatalf("outcomes = %v", got)
	}
	d.Reset()
	if d.Len() != 0 || d.Total() != 0 {
		t.Fatalf("reset left len=%d total=%v", d.Len(), d.Total())
	}
	if got := d.Outcomes(); len(got) != 0 {
		t.Fatalf("reset outcomes = %v", got)
	}
	if d.Prob(0b0011) != 0 {
		t.Fatal("reset kept mass")
	}
	// Refill with a different support: iteration order and totals behave
	// like a fresh distribution.
	d.Set(0b1111, 0.5)
	d.Set(0b0001, 0.5)
	got := d.Outcomes()
	if len(got) != 2 || got[0] != 0b0001 || got[1] != 0b1111 {
		t.Fatalf("refilled outcomes = %v", got)
	}
	if !almostEq(d.Total(), 1, 1e-12) {
		t.Fatalf("refilled total = %v", d.Total())
	}
}

func TestDistResetRefillAllocationFree(t *testing.T) {
	d := New(10)
	fill := func() {
		for i := 0; i < 100; i++ {
			d.Set(bitstr.Bits(i*7%1024), float64(i+1))
		}
	}
	fill()
	_ = d.Outcomes()
	avg := testing.AllocsPerRun(20, func() {
		d.Reset()
		fill()
		d.Normalize()
		var n int
		d.Range(func(bitstr.Bits, float64) { n++ })
		if n != 100 {
			t.Fatal("support changed")
		}
	})
	// Outcomes() copies; Range over the cached keys must not allocate more
	// than the occasional map-internals touch.
	if avg > 1 {
		t.Errorf("reset+refill allocates %.1f allocs/op", avg)
	}
}

// TestIndexResetMatchesFreshBuild: rebuilding an index in place over new
// entries must produce exactly the structure a fresh NewIndexOf build does,
// across changing widths and supports.
func TestIndexResetMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := new(Index)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(10)
		maxSupport := 200
		if space := 1 << uint(n); space < maxSupport {
			maxSupport = space // the draw loop needs distinct outcomes
		}
		support := 1 + rng.Intn(maxSupport)
		seen := make(map[bitstr.Bits]bool)
		entries := make([]Entry, 0, support)
		for len(entries) < support {
			x := bitstr.Bits(rng.Intn(1 << uint(n)))
			if seen[x] {
				continue
			}
			seen[x] = true
			entries = append(entries, Entry{X: x, P: rng.Float64()})
		}
		sortEntriesAsc(entries)
		ix.Reset(n, entries)
		fresh := NewIndexOf(n, entries)
		if ix.NumBits() != fresh.NumBits() || ix.Len() != fresh.Len() {
			t.Fatalf("trial %d: shape %d/%d vs %d/%d", trial, ix.NumBits(), ix.Len(), fresh.NumBits(), fresh.Len())
		}
		a, b := ix.Ranked(), fresh.Ranked()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: ranked[%d] %+v vs %+v", trial, i, a[i], b[i])
			}
		}
		for w := 0; w <= n; w++ {
			ba, bb := ix.Bucket(w), fresh.Bucket(w)
			if len(ba) != len(bb) {
				t.Fatalf("trial %d: bucket %d size %d vs %d", trial, w, len(ba), len(bb))
			}
			for i := range ba {
				if ba[i] != bb[i] {
					t.Fatalf("trial %d: bucket %d entry %d differs", trial, w, i)
				}
			}
		}
	}
}

func TestIndexResetReusesMemory(t *testing.T) {
	entries := make([]Entry, 0, 300)
	for i := 0; i < 300; i++ {
		entries = append(entries, Entry{X: bitstr.Bits(i), P: float64(300 - i)})
	}
	ix := NewIndexOf(12, entries)
	avg := testing.AllocsPerRun(20, func() {
		ix.Reset(12, entries)
	})
	if avg > 0.5 {
		t.Errorf("warmed-up Reset allocates %.1f allocs/op", avg)
	}
}

func sortEntriesAsc(entries []Entry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].X < entries[j-1].X; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

func TestFromHistogram(t *testing.T) {
	d, n, err := FromHistogram(map[string]float64{"0011": 1, "1100": 3})
	if err != nil || n != 4 {
		t.Fatalf("err=%v n=%d", err, n)
	}
	if !almostEq(d.Prob(0b0011), 0.25, 1e-12) || !almostEq(d.Prob(0b1100), 0.75, 1e-12) {
		t.Fatalf("dist = %v", d)
	}
	round := ToHistogram(d)
	if len(round) != 2 || !almostEq(round["1100"], 0.75, 1e-12) {
		t.Fatalf("round trip = %v", round)
	}
	for name, h := range map[string]map[string]float64{
		"empty":       {},
		"mixed width": {"01": 1, "011": 1},
		"bad chars":   {"0x": 1},
		"no mass":     {"01": 0, "10": 0},
		"overflow":    {"01": math.MaxFloat64, "10": math.MaxFloat64},
		"tiny total":  {"0": 5e-324, "1": 5e-324},
		"negative":    {"01": -1},
		"too wide":    {strings.Repeat("1", bitstr.MaxBits+1): 1},
	} {
		if _, _, err := FromHistogram(h); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFromHistogramDeterministicTotal pins the sorted-accumulation fix: the
// normalization total must not depend on map iteration order, so repeated
// conversions of one histogram are bit-identical.
func TestFromHistogramDeterministicTotal(t *testing.T) {
	h := make(map[string]float64)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		h[bitstr.Format(bitstr.Bits(rng.Intn(1<<16)), 16)] = rng.Float64() / 3
	}
	base, _, err := FromHistogram(h)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		d, _, err := FromHistogram(h)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		base.Range(func(x bitstr.Bits, p float64) {
			if d.Prob(x) != p {
				same = false
			}
		})
		if !same {
			t.Fatal("conversion depends on map iteration order")
		}
	}
}
