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

// TestIndexBucketsPartitionByPopcount: every ranked entry carries its
// outcome's weight and mass, and the bucket bounds count the entries of
// each weight.
func TestIndexBucketsPartitionByPopcount(t *testing.T) {
	d := randomDist(t, 10, 300, 21)
	ix := NewIndex(d)
	if ix.Len() != d.Len() || ix.NumBits() != d.NumBits() {
		t.Fatalf("index shape %d/%d vs %d/%d", ix.Len(), ix.NumBits(), d.Len(), d.NumBits())
	}
	count := make([]int32, ix.NumBits()+1)
	for _, e := range ix.Ranked() {
		if e.W != bits.OnesCount64(e.X) {
			t.Fatalf("outcome %b has weight %d", e.X, e.W)
		}
		if d.Prob(e.X) != e.P {
			t.Fatalf("entry mass %v vs dist %v", e.P, d.Prob(e.X))
		}
		count[e.W]++
	}
	if len(ix.start) != ix.NumBits()+2 || ix.start[0] != 0 {
		t.Fatalf("bounds %v", ix.start)
	}
	for w, c := range count {
		if got := ix.start[w+1] - ix.start[w]; got != c {
			t.Fatalf("bucket %d: bounds hold %d entries, %d have its weight", w, got, c)
		}
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
		if ranked[i].X != x {
			t.Fatalf("ranked[%d] = %04b, want %04b", i, ranked[i].X, x)
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

func TestIndexOfTruncatedEntries(t *testing.T) {
	// Reset must accept an explicit (e.g. TopM-truncated) outcome set whose
	// masses do not sum to one.
	entries := []Entry{{X: 0b001, P: 0.5}, {X: 0b010, P: 0.1}, {X: 0b100, P: 0.2}}
	ix := new(Index).Reset(3, entries)
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

// TestIndexRankOrder pins Reset's ranked slice, field for field, and the
// weight buckets Packed scatters it into, rank for rank, to a stable
// comparator sort of the same entries by CompareByProb, over the masses where
// a radix key could go wrong: ties, signs, both zeros, subnormals and
// infinities.
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
	ix, pk := new(Index), new(Packed)
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
				wantBuckets := make([][]int32, width+1)
				for r, i := range ord {
					e := entries[i]
					want[r] = IndexEntry{X: e.X, P: e.P, W: bits.OnesCount64(e.X), Ord: i}
					wantBuckets[want[r].W] = append(wantBuckets[want[r].W], int32(r))
				}

				ix.Reset(width, entries)
				where := fmt.Sprintf("width %d, %d %s entries", width, size, name)
				if got := ix.Ranked(); !sameIndexEntries(got, want) {
					t.Fatalf("%s: ranked %v, want %v", where, got, want)
				}
				pk.Reset(ix)
				for w := 0; w <= width; w++ {
					lo, hi := pk.Bucket(w)
					if got := pk.Ranks()[lo:hi]; !slices.Equal(got, wantBuckets[w]) {
						t.Fatalf("%s: bucket %d ranks %v, want %v", where, w, got, wantBuckets[w])
					}
					for k, r := range wantBuckets[w] {
						if pk.Words()[lo+k] != want[r].X || math.Float64bits(pk.Probs()[lo+k]) != math.Float64bits(want[r].P) {
							t.Fatalf("%s: bucket %d slot %d holds (%b, %v), rank %d is (%b, %v)",
								where, w, k, pk.Words()[lo+k], pk.Probs()[lo+k], r, want[r].X, want[r].P)
						}
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
			x.W == y.W && x.Ord == y.Ord
	})
}

// BenchmarkIndexReset times one warm rebuild of the index over the §6.6
// workload's normalized masses, as a session's engine rebuilds it per
// request; the +packed rows rebuild the packed view after it, as the weight
// window scan does on every request.
func BenchmarkIndexReset(b *testing.B) {
	for _, c := range []struct{ bits, support int }{{12, 256}, {20, 4000}} {
		d := Synthetic(c.bits, c.support, 42)
		entries := make([]Entry, 0, d.Len())
		d.Range(func(x bitstr.Bits, p float64) { entries = append(entries, Entry{X: x, P: p}) })
		for _, packed := range []bool{false, true} {
			name := strconv.Itoa(c.support)
			if packed {
				name += "+packed"
			}
			b.Run(name, func(b *testing.B) {
				ix, pk := new(Index).Reset(c.bits, entries), new(Packed)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					ix.Reset(c.bits, entries)
					if packed {
						pk.Reset(ix)
					}
				}
			})
		}
	}
}
