// The rank order of a distribution: its outcomes sorted by descending
// probability, each with its Hamming weight, and the bounds of the weight
// buckets that the weight-bucketed layout (Packed) and the engines' pair
// counts read. The ranking is an O(N) radix sort.
package dist

import (
	"math"
	"math/bits"

	"repro/internal/bitstr"
)

// IndexEntry is one indexed outcome. Its position in Index.Ranked is its
// rank in the global descending-probability order (ties broken by ascending
// outcome); Ord is its position in the ascending-outcome order (the order
// Dist.Range visits); W is its Hamming weight (popcount).
type IndexEntry struct {
	X   bitstr.Bits
	P   float64
	W   int
	Ord int
}

// Index is the rank order of a sparse distribution: every outcome in
// descending probability (Ranked), plus how many outcomes hold each Hamming
// weight, kept as the bounds of the weight buckets Packed lays out.
type Index struct {
	n      int
	ranked []IndexEntry
	// start[w] .. start[w+1] delimit weight w's outcomes in a bucket-major
	// layout (len n+2): start[w] counts the outcomes lighter than w.
	start []int32
	// Reset's radix-sort scratch: each entry's rank key, and entry
	// positions in the order sorted so far (order) and being written (tmp).
	keys       []uint64
	order, tmp []int32
}

// NewIndex builds the index of a sparse distribution in O(N): a radix sort
// ranks it.
func NewIndex(d *Dist) *Index {
	return new(Index).Reset(d.n, d.es)
}

// Reset rebuilds the index in place over an explicit outcome set over an
// n-bit space, reusing the ranked slice, the bucket bounds and the sort
// scratch of previous builds so a session reconstructing repeatedly is
// allocation-free after warm-up. The entries must be in ascending outcome
// order without duplicates (a Dist's entries, or a TopM head re-sorted by
// outcome, both qualify); their masses need not be normalized, and may be
// any float64 but NaN, which CompareByProb does not order and Reset does not
// rank. The receiver is returned for chaining. Ranks follow CompareByProb: a
// stable radix sort on a descending-mass key keeps the entries'
// ascending-outcome order within each run of equal masses.
func (ix *Index) Reset(n int, entries []Entry) *Index {
	ix.n = n
	if cap(ix.ranked) < len(entries) {
		ix.ranked = make([]IndexEntry, len(entries))
	} else {
		ix.ranked = ix.ranked[:len(entries)]
	}
	if cap(ix.start) < n+2 {
		ix.start = make([]int32, n+2)
	}
	ix.start = ix.start[:n+2]
	clear(ix.start)
	for r, i := range ix.rank(entries) {
		e := entries[i]
		w := bits.OnesCount64(e.X)
		ix.start[w+1]++
		ix.ranked[r] = IndexEntry{X: e.X, P: e.P, W: w, Ord: int(i)}
	}
	for w := 1; w < len(ix.start); w++ {
		ix.start[w] += ix.start[w-1]
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
