// The popcount-bucketed index: Hamming distance obeys a triangle inequality
// on Hamming weight, |popcount(x) - popcount(y)| <= distance(x, y), so a
// radius-d neighborhood query over a distribution only needs to inspect the
// 2d+1 weight buckets around popcount(x). The reconstruction engines and the
// hamming analysis package share this structure for every pairwise scan.
package dist

import (
	"math"
	"math/bits"
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
	// Reset's radix-sort scratch: each entry's rank key, and entry
	// positions in the order sorted so far (order) and being written (tmp).
	keys       []uint64
	order, tmp []int32
}

// NewIndex builds the index of a sparse distribution in O(N): a radix sort
// ranks it.
func NewIndex(d *Dist) *Index {
	return NewIndexOf(d.n, d.es)
}

// NewIndexOf builds the index of an explicit outcome set over an n-bit
// space. The entries must be in ascending outcome order without duplicates
// (Dist.TopK output re-sorted, or Dist.Range accumulation, both qualify);
// their masses need not be normalized.
func NewIndexOf(n int, entries []Entry) *Index {
	return new(Index).Reset(n, entries)
}

// Reset rebuilds the index in place over a new outcome set, reusing the
// ranked slice, the per-weight bucket backing arrays and the sort scratch of
// previous builds so a session reconstructing repeatedly is allocation-free
// after warm-up. The entry contract is the same as NewIndexOf's; the
// receiver is returned for chaining. Masses may be any float64 but NaN, which
// CompareByProb does not order and Reset does not rank. The rebuilt index is
// bit-identical to a fresh NewIndexOf build, and its ranks follow
// CompareByProb: a stable radix sort on a descending-mass key keeps the
// entries' ascending-outcome order within each run of equal masses, and
// buckets are refilled in ascending-rank order.
func (ix *Index) Reset(n int, entries []Entry) *Index {
	ix.n = n
	if cap(ix.ranked) < len(entries) {
		ix.ranked = make([]IndexEntry, len(entries))
	} else {
		ix.ranked = ix.ranked[:len(entries)]
	}
	for r, i := range ix.rank(entries) {
		e := entries[i]
		ix.ranked[r] = IndexEntry{X: e.X, P: e.P, W: bits.OnesCount64(e.X), Rank: r, Ord: int(i)}
	}
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
		w := ix.ranked[i].W
		ix.buckets[w] = append(ix.buckets[w], ix.ranked[i])
	}
	return ix
}

// rank returns the positions of entries in CompareByProb order: the
// radixOrder of their rankKeys. Probabilities from 2^-15 to 1 share their
// top byte, and integer masses below 2^16 their four low ones, so most of
// its passes are skipped.
func (ix *Index) rank(entries []Entry) []int32 {
	n := len(entries)
	if cap(ix.keys) < n {
		ix.keys = make([]uint64, n)
		ix.order = make([]int32, n)
		ix.tmp = make([]int32, n)
	}
	keys := ix.keys[:n]
	for i, e := range entries {
		keys[i] = rankKey(e.P)
	}
	return radixOrder(keys, ix.order[:n], ix.tmp[:n])
}

// radixOrder returns the positions of keys in ascending key order, equal
// keys in position order: a stable LSD radix sort, one byte per pass, that
// uses src and dst (each as long as keys) as scratch. A pass whose byte is
// the same in every key would leave the order as it is, so it is skipped.
func radixOrder(keys []uint64, src, dst []int32) []int32 {
	n := len(keys)
	var count [8][256]int32
	for i, k := range keys {
		src[i] = int32(i)
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	for d := range count {
		c := &count[d]
		shift := 8 * d
		if n == 0 || c[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for _, i := range src {
			b := byte(keys[i] >> shift)
			dst[c[b]] = i
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// rankKey maps a mass to a key whose ascending order is descending mass:
// the IEEE-754 bits, flipped so they order as unsigned integers, then
// complemented. -0 takes +0's key, since the two compare equal.
func rankKey(p float64) uint64 {
	if p == 0 {
		p = 0
	}
	b := math.Float64bits(p)
	neg := uint64(int64(b) >> 63) // all ones for a negative mass
	return b ^ (^neg >> 1)
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
