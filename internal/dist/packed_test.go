package dist

import (
	"math/bits"
	"testing"
)

// TestPackedMirrorsIndex: the packed view must hold exactly the index's
// entries, bucket-major, with ranks ascending within each bucket and every
// (word, prob, rank) triple agreeing with the index entry it packs.
func TestPackedMirrorsIndex(t *testing.T) {
	d := randomDist(t, 10, 300, 33)
	ix := NewIndex(d)
	pk := new(Packed).Reset(ix)
	if pk.Len() != ix.Len() || pk.NumBits() != ix.NumBits() {
		t.Fatalf("packed shape %d/%d vs index %d/%d", pk.Len(), pk.NumBits(), ix.Len(), ix.NumBits())
	}
	words, probs, ranks := pk.Words(), pk.Probs(), pk.Ranks()
	ranked := ix.Ranked()
	weights := make([]int, pk.NumBits()+1)
	for _, e := range ranked {
		weights[e.W]++
	}
	total := 0
	for w := 0; w <= pk.NumBits(); w++ {
		lo, hi := pk.Bucket(w)
		if hi-lo != weights[w] {
			t.Fatalf("bucket %d: packed span %d, %d ranked entries of its weight", w, hi-lo, weights[w])
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			if bits.OnesCount64(words[k]) != w {
				t.Fatalf("word %b packed into bucket %d", words[k], w)
			}
			if ranks[k] <= prev {
				t.Fatalf("bucket %d ranks not ascending: %d after %d", w, ranks[k], prev)
			}
			prev = ranks[k]
			e := ranked[ranks[k]]
			if e.X != words[k] || e.P != probs[k] {
				t.Fatalf("packed slot %d = (%b, %v), ranked[%d] = (%b, %v)",
					k, words[k], probs[k], ranks[k], e.X, e.P)
			}
			total++
		}
	}
	if total != pk.Len() {
		t.Fatalf("buckets cover %d of %d entries", total, pk.Len())
	}
	if lo, hi := pk.Bucket(-1); lo != hi {
		t.Fatal("out-of-range bucket non-empty")
	}
	if lo, hi := pk.Bucket(pk.NumBits() + 1); lo != hi {
		t.Fatal("out-of-range bucket non-empty")
	}
}

// TestPackedSuffixAfter pins the binary search against a brute-force filter
// of the ranked entries on every (bucket, rank) combination of a random
// distribution: the suffix holds exactly the entries of the bucket's weight
// ranked after the given rank, in rank order.
func TestPackedSuffixAfter(t *testing.T) {
	d := randomDist(t, 8, 120, 7)
	ix := NewIndex(d)
	pk := new(Packed).Reset(ix)
	ranked := ix.Ranked()
	for w := 0; w <= pk.NumBits(); w++ {
		_, hi := pk.Bucket(w)
		for rank := -1; rank <= ix.Len(); rank++ {
			k := pk.SuffixAfter(w, rank)
			var want []int
			for r := max(rank+1, 0); r < len(ranked); r++ {
				if ranked[r].W == w {
					want = append(want, r)
				}
			}
			if hi-k != len(want) {
				t.Fatalf("bucket %d rank %d: suffix length %d, want %d", w, rank, hi-k, len(want))
			}
			for i, r := range want {
				if pk.Words()[k+i] != ranked[r].X || pk.Ranks()[k+i] != int32(r) {
					t.Fatalf("bucket %d rank %d: suffix[%d] = (%b, %d), want (%b, %d)",
						w, rank, i, pk.Words()[k+i], pk.Ranks()[k+i], ranked[r].X, r)
				}
			}
		}
	}
}

// TestPackedResetReuse: rebuilding over shrinking and growing supports must
// stay correct and, once warmed to the high-water mark, allocation-free —
// the property the blocked engine's 0 allocs/op contract leans on.
func TestPackedResetReuse(t *testing.T) {
	pk := new(Packed)
	ix := new(Index)
	for trial, shape := range []struct {
		n, support int
		seed       int64
	}{{10, 300, 1}, {8, 100, 2}, {12, 500, 3}, {12, 500, 4}, {6, 40, 5}} {
		d := randomDist(t, shape.n, shape.support, shape.seed)
		entries := make([]Entry, 0, d.Len())
		d.Range(func(x uint64, p float64) {
			entries = append(entries, Entry{X: x, P: p})
		})
		ix.Reset(shape.n, entries)
		pk.Reset(ix)
		fresh := new(Packed).Reset(ix)
		if pk.Len() != fresh.Len() {
			t.Fatalf("trial %d: reset len %d, fresh %d", trial, pk.Len(), fresh.Len())
		}
		for k := range fresh.Words() {
			if pk.Words()[k] != fresh.Words()[k] || pk.Probs()[k] != fresh.Probs()[k] || pk.Ranks()[k] != fresh.Ranks()[k] {
				t.Fatalf("trial %d: slot %d diverges from fresh build", trial, k)
			}
		}
	}
	// Warmed to the largest shape: a same-shape rebuild allocates nothing.
	d := randomDist(t, 12, 500, 3)
	entries := make([]Entry, 0, d.Len())
	d.Range(func(x uint64, p float64) {
		entries = append(entries, Entry{X: x, P: p})
	})
	avg := testing.AllocsPerRun(10, func() {
		ix.Reset(12, entries)
		pk.Reset(ix)
	})
	if avg > 0 {
		t.Errorf("warmed-up Packed.Reset allocates %.1f allocs/op", avg)
	}
}
