// The popcount-bucketed index: Hamming distance obeys a triangle inequality
// on Hamming weight, |popcount(x) - popcount(y)| <= distance(x, y), so a
// radius-d neighborhood query over a distribution only needs to inspect the
// 2d+1 weight buckets around popcount(x). The reconstruction engines and the
// hamming analysis package share this structure for every pairwise scan.
package dist

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitstr"
)

// IndexEntry is one indexed outcome. Rank is its position in the global
// descending-probability order (ties broken by ascending outcome); Ord is
// its position in the ascending-outcome order (the order Dist.Range visits);
// W is its Hamming weight (popcount).
type IndexEntry struct {
	X    bitstr.Bits
	P    float64
	W    int
	Rank int
	Ord  int
}

// Index is a popcount-bucketed view of a sparse distribution. Entries are
// available in two deterministic orders: globally by descending probability
// (Ranked), and per Hamming-weight bucket, each bucket again in descending
// probability. Bucket b holds exactly the outcomes with popcount b, so a
// query at Hamming radius d from x may skip every bucket outside
// [popcount(x)-d, popcount(x)+d].
type Index struct {
	n       int
	ranked  []IndexEntry
	buckets [][]IndexEntry // by popcount 0..n, each ascending Rank
}

// NewIndex builds the index of a sparse distribution in O(N log N).
func NewIndex(d *Dist) *Index {
	entries := make([]Entry, 0, d.Len())
	d.Range(func(x bitstr.Bits, p float64) {
		entries = append(entries, Entry{X: x, P: p})
	})
	return NewIndexOf(d.n, entries)
}

// NewIndexOf builds the index of an explicit outcome set over an n-bit
// space. The entries must be in ascending outcome order without duplicates
// (Dist.TopK output re-sorted, or Dist.Range accumulation, both qualify);
// their masses need not be normalized.
func NewIndexOf(n int, entries []Entry) *Index {
	return new(Index).Reset(n, entries)
}

// rankedOrder applies the canonical CompareByProb rank order to index
// entries. The generic slices sort keeps Reset free of the reflection
// allocations sort.Slice would add on every rebuild.
func rankedOrder(a, b IndexEntry) int {
	return CompareByProb(Entry{X: a.X, P: a.P}, Entry{X: b.X, P: b.P})
}

// Reset rebuilds the index in place over a new outcome set, reusing the
// ranked slice and per-weight bucket backing arrays of previous builds so a
// session reconstructing repeatedly is allocation-free after warm-up. The
// entry contract is the same as NewIndexOf's; the receiver is returned for
// chaining. The rebuilt index is bit-identical to a fresh NewIndexOf build:
// the outcomes are distinct, so CompareByProb orders them totally and any
// sort yields the same ranks, and buckets are refilled in ascending-rank
// order exactly as a fresh build fills them.
func (ix *Index) Reset(n int, entries []Entry) *Index {
	ix.n = n
	if cap(ix.ranked) < len(entries) {
		ix.ranked = make([]IndexEntry, len(entries))
	} else {
		ix.ranked = ix.ranked[:len(entries)]
	}
	for i, e := range entries {
		ix.ranked[i] = IndexEntry{X: e.X, P: e.P, W: bits.OnesCount64(e.X), Ord: i}
	}
	slices.SortFunc(ix.ranked, rankedOrder)
	if cap(ix.buckets) < n+1 {
		buckets := make([][]IndexEntry, n+1)
		copy(buckets, ix.buckets) // keep the capacity of previously grown buckets
		ix.buckets = buckets
	} else {
		ix.buckets = ix.buckets[:n+1]
	}
	for w := range ix.buckets {
		ix.buckets[w] = ix.buckets[w][:0]
	}
	for i := range ix.ranked {
		ix.ranked[i].Rank = i
		w := ix.ranked[i].W
		ix.buckets[w] = append(ix.buckets[w], ix.ranked[i])
	}
	return ix
}

// NumBits returns the outcome width in bits.
func (ix *Index) NumBits() int { return ix.n }

// Len returns the number of indexed outcomes.
func (ix *Index) Len() int { return len(ix.ranked) }

// Ranked returns all entries in descending-probability order (ties by
// ascending outcome). The slice is shared; callers must not mutate it.
func (ix *Index) Ranked() []IndexEntry { return ix.ranked }

// Bucket returns the entries of Hamming weight w in descending-probability
// order. The slice is shared; callers must not mutate it.
func (ix *Index) Bucket(w int) []IndexEntry {
	if w < 0 || w > ix.n {
		return nil
	}
	return ix.buckets[w]
}

// After returns the suffix of bucket w holding entries of strictly lower
// rank quality — global Rank greater than the given rank. Because buckets
// are stored in ascending-rank order, the suffix is found by binary search.
func (ix *Index) After(w, rank int) []IndexEntry {
	b := ix.Bucket(w)
	lo := sort.Search(len(b), func(i int) bool { return b[i].Rank > rank })
	return b[lo:]
}

// RangeBall calls fn for every indexed entry within Hamming distance maxD of
// x, including x itself if indexed. Buckets outside the weight window are
// skipped wholesale; entries inside it are confirmed with an exact distance
// check. Iteration is deterministic: buckets in ascending weight, entries in
// descending probability.
func (ix *Index) RangeBall(x bitstr.Bits, maxD int, fn func(e IndexEntry, d int)) {
	wx := bits.OnesCount64(x)
	lo, hi := wx-maxD, wx+maxD
	if lo < 0 {
		lo = 0
	}
	if hi > ix.n {
		hi = ix.n
	}
	for w := lo; w <= hi; w++ {
		for _, e := range ix.buckets[w] {
			if d := bitstr.Distance(x, e.X); d <= maxD {
				fn(e, d)
			}
		}
	}
}

// RangePairsAfter calls fn for every indexed entry f within Hamming distance
// maxD of e whose global Rank exceeds e's — the triangular pair enumeration:
// visiting every entry once and calling RangePairsAfter on it yields each
// unordered pair of distinct outcomes exactly once, at the member with the
// higher probability (ties at the smaller outcome). Buckets outside e's
// weight window are skipped wholesale; candidates inside it are confirmed
// with an exact distance check.
func (ix *Index) RangePairsAfter(e IndexEntry, maxD int, fn func(f IndexEntry, d int)) {
	lo, hi := e.W-maxD, e.W+maxD
	if lo < 0 {
		lo = 0
	}
	if hi > ix.n {
		hi = ix.n
	}
	for w := lo; w <= hi; w++ {
		for _, f := range ix.After(w, e.Rank) {
			if d := bitstr.Distance(e.X, f.X); d <= maxD {
				fn(f, d)
			}
		}
	}
}

// CHS computes the Cumulative Hamming Strength vector of x against the
// indexed distribution: entry k holds the total probability at Hamming
// distance exactly k from x, for k in [0, maxD], visiting only the weight
// buckets the triangle inequality admits.
func (ix *Index) CHS(x bitstr.Bits, maxD int) []float64 {
	v := make([]float64, maxD+1)
	ix.RangeBall(x, maxD, func(e IndexEntry, d int) {
		v[d] += e.P
	})
	return v
}
