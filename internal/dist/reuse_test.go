package dist

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstr"
)

// TestDistReset: Reset makes a Dist of the given entries and total, whatever
// it held before, so a refill behaves like a fresh distribution.
func TestDistReset(t *testing.T) {
	var d Dist
	d.Reset(4, []Entry{{0b0011, 1}, {0b1100, 3}}, 4).Normalize()
	if got := d.Outcomes(); len(got) != 2 || d.Prob(0b1100) != 0.75 || d.Total() != 1 {
		t.Fatalf("outcomes %v, Prob(1100) %v, total %v", got, d.Prob(0b1100), d.Total())
	}
	d.Reset(5, nil, 0)
	if d.Len() != 0 || d.Total() != 0 || d.NumBits() != 5 || d.Prob(0b0011) != 0 {
		t.Fatalf("reset left len=%d total=%v n=%d", d.Len(), d.Total(), d.NumBits())
	}
	d.Reset(5, []Entry{{0b00001, 0.5}, {0b11111, 0.5}}, 1)
	got := d.Outcomes()
	if len(got) != 2 || got[0] != 0b00001 || got[1] != 0b11111 || d.Total() != 1 {
		t.Fatalf("refilled outcomes = %v, total %v", got, d.Total())
	}
}

// TestDistResetRefillAllocationFree: refilling a Dist from reused entries,
// normalizing and ranging over it allocate nothing — the session's output
// path.
func TestDistResetRefillAllocationFree(t *testing.T) {
	var d Dist
	es := make([]Entry, 0, 100)
	avg := testing.AllocsPerRun(20, func() {
		es = es[:0]
		var total float64
		for i := 0; i < 100; i++ {
			es = append(es, Entry{X: bitstr.Bits(i * 7), P: float64(i + 1)})
			total += float64(i + 1)
		}
		d.Reset(10, es, total).Normalize()
		var n int
		d.Range(func(bitstr.Bits, float64) { n++ })
		if n != 100 {
			t.Fatal("support changed")
		}
	})
	if avg != 0 {
		t.Errorf("reset+refill allocates %.1f allocs/op", avg)
	}
}

// TestIndexResetMatchesFreshBuild: rebuilding an index in place over new
// entries must produce exactly the structure a fresh build does, across
// changing widths and supports.
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
		fresh := new(Index).Reset(n, entries)
		if ix.NumBits() != fresh.NumBits() || ix.Len() != fresh.Len() {
			t.Fatalf("trial %d: shape %d/%d vs %d/%d", trial, ix.NumBits(), ix.Len(), fresh.NumBits(), fresh.Len())
		}
		a, b := ix.Ranked(), fresh.Ranked()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: ranked[%d] %+v vs %+v", trial, i, a[i], b[i])
			}
		}
		if !slices.Equal(ix.start, fresh.start) {
			t.Fatalf("trial %d: bucket bounds %v vs %v", trial, ix.start, fresh.start)
		}
	}
}

func TestIndexResetReusesMemory(t *testing.T) {
	entries := make([]Entry, 0, 300)
	for i := 0; i < 300; i++ {
		entries = append(entries, Entry{X: bitstr.Bits(i), P: float64(300 - i)})
	}
	ix := new(Index).Reset(12, entries)
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
