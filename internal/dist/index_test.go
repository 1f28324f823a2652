package dist

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitstr"
)

func TestIndexBucketsPartitionByPopcount(t *testing.T) {
	d := randomDist(t, 10, 300, 21)
	ix := NewIndex(d)
	if ix.Len() != d.Len() || ix.NumBits() != d.NumBits() {
		t.Fatalf("index shape %d/%d vs %d/%d", ix.Len(), ix.NumBits(), d.Len(), d.NumBits())
	}
	total := 0
	for w := 0; w <= ix.NumBits(); w++ {
		for _, e := range ix.Bucket(w) {
			if bits.OnesCount64(e.X) != w {
				t.Fatalf("outcome %b in bucket %d", e.X, w)
			}
			if e.W != w {
				t.Fatalf("entry weight %d in bucket %d", e.W, w)
			}
			if d.Prob(e.X) != e.P {
				t.Fatalf("entry mass %v vs dist %v", e.P, d.Prob(e.X))
			}
			total++
		}
	}
	if total != d.Len() {
		t.Fatalf("buckets hold %d entries, dist has %d", total, d.Len())
	}
	if ix.Bucket(-1) != nil || ix.Bucket(ix.NumBits()+1) != nil {
		t.Fatal("out-of-range bucket not nil")
	}
}

func TestIndexRankedOrder(t *testing.T) {
	b := NewBuilder(4)
	b.Set(0b0001, 0.3)
	b.Set(0b1000, 0.3) // tie with 0001: ascending outcome breaks it
	b.Set(0b1111, 0.4)
	d := b.Dist()
	ix := NewIndex(d)
	ranked := ix.Ranked()
	want := []bitstr.Bits{0b1111, 0b0001, 0b1000}
	for i, x := range want {
		if ranked[i].X != x || ranked[i].Rank != i {
			t.Fatalf("ranked[%d] = {%04b rank %d}, want %04b", i, ranked[i].X, ranked[i].Rank, x)
		}
	}
	// Ord maps back to the ascending-outcome enumeration.
	outs := d.Outcomes()
	for _, e := range ranked {
		if outs[e.Ord] != e.X {
			t.Fatalf("Ord %d of %04b maps to %04b", e.Ord, e.X, outs[e.Ord])
		}
	}
}

func TestIndexAfterSuffixes(t *testing.T) {
	d := randomDist(t, 8, 120, 31)
	ix := NewIndex(d)
	for w := 0; w <= 8; w++ {
		b := ix.Bucket(w)
		for _, rank := range []int{-1, 0, 5, 60, 119, 200} {
			got := ix.After(w, rank)
			wantFrom := 0
			for wantFrom < len(b) && b[wantFrom].Rank <= rank {
				wantFrom++
			}
			if len(got) != len(b)-wantFrom {
				t.Fatalf("After(%d,%d) len %d, want %d", w, rank, len(got), len(b)-wantFrom)
			}
			for _, e := range got {
				if e.Rank <= rank {
					t.Fatalf("After(%d,%d) returned rank %d", w, rank, e.Rank)
				}
			}
		}
	}
}

func TestIndexRangeBallMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(10)
		d := randomDist(t, n, 1+rng.Intn(1<<uint(n))/2, int64(trial))
		ix := NewIndex(d)
		x := bitstr.Bits(rng.Intn(1 << uint(n)))
		maxD := rng.Intn(n + 1)
		got := make(map[bitstr.Bits]int)
		ix.RangeBall(x, maxD, func(e IndexEntry, dd int) {
			if dd != bitstr.Distance(x, e.X) {
				t.Fatalf("reported distance %d, true %d", dd, bitstr.Distance(x, e.X))
			}
			got[e.X] = dd
		})
		want := 0
		d.Range(func(y bitstr.Bits, _ float64) {
			if bitstr.Distance(x, y) <= maxD {
				want++
				if _, ok := got[y]; !ok {
					t.Fatalf("ball missed %b at distance %d", y, bitstr.Distance(x, y))
				}
			}
		})
		if len(got) != want {
			t.Fatalf("ball holds %d outcomes, want %d", len(got), want)
		}
	}
}

func TestIndexCHSMatchesDirectScan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(8)
		d := randomDist(t, n, 80, int64(100+trial)).Normalize()
		ix := NewIndex(d)
		x := bitstr.Bits(rng.Intn(1 << uint(n)))
		maxD := 1 + rng.Intn(n)
		got := ix.CHS(x, maxD)
		want := make([]float64, maxD+1)
		d.Range(func(y bitstr.Bits, p float64) {
			if k := bitstr.Distance(x, y); k <= maxD {
				want[k] += p
			}
		})
		for k := range want {
			if !almostEq(got[k], want[k], 1e-12) {
				t.Fatalf("CHS[%d] = %v, want %v", k, got[k], want[k])
			}
		}
	}
}

func TestIndexOfTruncatedEntries(t *testing.T) {
	// NewIndexOf must accept an explicit (e.g. TopM-truncated) outcome set
	// whose masses do not sum to one.
	entries := []Entry{{X: 0b001, P: 0.5}, {X: 0b010, P: 0.1}, {X: 0b100, P: 0.2}}
	ix := NewIndexOf(3, entries)
	if ix.Len() != 3 {
		t.Fatalf("len %d", ix.Len())
	}
	ranked := ix.Ranked()
	if ranked[0].X != 0b001 || ranked[1].X != 0b100 || ranked[2].X != 0b010 {
		t.Fatalf("rank order %v", ranked)
	}
	if ranked[0].Ord != 0 || ranked[1].Ord != 2 || ranked[2].Ord != 1 {
		t.Fatalf("ord mapping %v", ranked)
	}
}

// TestIndexRankOrder pins Reset's ranked slice and buckets, field for field,
// to a stable comparator sort of the same entries by CompareByProb, over the
// masses where a radix key could go wrong: ties, signs, both zeros,
// subnormals and infinities.
func TestIndexRankOrder(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, -1e-310, 1, -1, 0.5, 3, math.Inf(1), math.Inf(-1)}
	masses := map[string]func(rng *rand.Rand) float64{
		"equal":     func(*rand.Rand) float64 { return 0.25 },
		"counts":    func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(5)) },
		"signed":    func(rng *rand.Rand) float64 { return rng.NormFloat64() },
		"zeros":     func(rng *rand.Rand) float64 { return special[rng.Intn(2)] },
		"special":   func(rng *rand.Rand) float64 { return special[rng.Intn(len(special))] },
		"uniform":   func(rng *rand.Rand) float64 { return rng.Float64() },
		"synthetic": func(rng *rand.Rand) float64 { return 1e-4 * (1 + rng.Float64()) },
	}
	ix := new(Index)
	for _, width := range []int{1, 12, 20, 64} {
		for _, size := range []int{0, 1, 256, 4000} {
			if width < 12 && size > 1<<width {
				size = 1 << width
			}
			for name, mass := range masses {
				rng := rand.New(rand.NewSource(int64(width*10007 + size)))
				seen := make(map[bitstr.Bits]bool, size)
				entries := make([]Entry, 0, size)
				for len(entries) < size {
					x := bitstr.Bits(rng.Uint64()) & bitstr.AllOnes(width)
					if !seen[x] {
						seen[x] = true
						entries = append(entries, Entry{X: x, P: mass(rng)})
					}
				}
				slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.X, b.X) })

				ord := make([]int, len(entries))
				for i := range ord {
					ord[i] = i
				}
				slices.SortStableFunc(ord, func(a, b int) int { return CompareByProb(entries[a], entries[b]) })
				want := make([]IndexEntry, len(entries))
				wantBuckets := make([][]IndexEntry, width+1)
				for r, i := range ord {
					e := entries[i]
					want[r] = IndexEntry{X: e.X, P: e.P, W: bits.OnesCount64(e.X), Rank: r, Ord: i}
					wantBuckets[want[r].W] = append(wantBuckets[want[r].W], want[r])
				}

				ix.Reset(width, entries)
				where := fmt.Sprintf("width %d, %d %s entries", width, size, name)
				if got := ix.Ranked(); !sameIndexEntries(got, want) {
					t.Fatalf("%s: ranked %v, want %v", where, got, want)
				}
				for w := 0; w <= width; w++ {
					if got := ix.Bucket(w); !sameIndexEntries(got, wantBuckets[w]) {
						t.Fatalf("%s: bucket %d %v, want %v", where, w, got, wantBuckets[w])
					}
				}
			}
		}
	}
}

// sameIndexEntries compares index entries field for field, masses by their
// bits so -0 and +0 differ.
func sameIndexEntries(a, b []IndexEntry) bool {
	return slices.EqualFunc(a, b, func(x, y IndexEntry) bool {
		return x.X == y.X && math.Float64bits(x.P) == math.Float64bits(y.P) &&
			x.W == y.W && x.Rank == y.Rank && x.Ord == y.Ord
	})
}

// BenchmarkIndexReset times one warm rebuild of the index over the §6.6
// workload's normalized masses, as a session's engine rebuilds it per
// request.
func BenchmarkIndexReset(b *testing.B) {
	for _, c := range []struct{ bits, support int }{{12, 256}, {20, 4000}} {
		b.Run(strconv.Itoa(c.support), func(b *testing.B) {
			d := Synthetic(c.bits, c.support, 42)
			entries := make([]Entry, 0, d.Len())
			d.Range(func(x bitstr.Bits, p float64) { entries = append(entries, Entry{X: x, P: p}) })
			ix := NewIndexOf(c.bits, entries)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ix.Reset(c.bits, entries)
			}
		})
	}
}
