package dist

import "repro/internal/bitstr"

// Packed is the bucket-major layout of an Index, built for the flat scans of
// the blocked reconstruction engine. It lays the ranked outcomes out as three
// parallel primitive arrays — ascending Hamming weight, and within each
// weight bucket ascending global rank (descending probability) — so a
// radius-d candidate scan is a contiguous streamed read of 8-byte words the
// compiler can batch popcounts over:
//
//	words: [ bucket 0 | bucket 1 | ... | bucket n ]   outcome words
//	probs: [  parallel probabilities, same order    ]
//	ranks: [  parallel global ranks, same order     ]
//	start: start[w] .. start[w+1] delimit bucket w  (len n+2)
//
// Hamming distance obeys a triangle inequality on Hamming weight,
// |popcount(x) − popcount(y)| ≤ d(x, y), so a radius-d scan around x reads
// only the 2d+1 buckets around popcount(x). Because ranks ascend within a
// bucket, the triangular "entries ranked after r" suffix of any bucket is
// found by one binary search, and the suffix is contiguous in all three
// arrays. An outcome takes 20 bytes here, beside its 32-byte index entry.
//
// Like Index, a Packed is rebuilt in place (Reset) without shedding capacity,
// so a warmed-up reconstruction session repacks per call without allocating.
// It is immutable between Resets; concurrent read-only access is safe and the
// engines rely on that in their parallel scans.
type Packed struct {
	n     int
	words []uint64
	probs []float64
	ranks []int32
	start []int32
}

// Reset rebuilds the packed view in place from an index, reusing the backing
// arrays of previous builds. The receiver is returned for chaining. It
// scatters the index's ranked entries in rank order, each to the next free
// slot of its weight bucket, so every bucket comes out rank-ascending.
//
// Ranks are stored as int32: a support large enough to overflow one could not
// hold its 32-byte index entries in addressable memory in the first place.
func (pk *Packed) Reset(ix *Index) *Packed {
	N := ix.Len()
	pk.n = ix.n
	if cap(pk.words) < N {
		pk.words = make([]uint64, N)
		pk.probs = make([]float64, N)
		pk.ranks = make([]int32, N)
	}
	pk.words = pk.words[:N]
	pk.probs = pk.probs[:N]
	pk.ranks = pk.ranks[:N]
	pk.start = append(pk.start[:0], ix.start...)
	var next [bitstr.MaxBits + 1]int32 // each bucket's next free slot
	copy(next[:], ix.start)
	for r := range ix.ranked {
		e := &ix.ranked[r]
		slot := next[e.W]
		next[e.W]++
		pk.words[slot] = e.X
		pk.probs[slot] = e.P
		pk.ranks[slot] = int32(r)
	}
	return pk
}

// NumBits returns the outcome width in bits.
func (pk *Packed) NumBits() int { return pk.n }

// Len returns the number of packed outcomes.
func (pk *Packed) Len() int { return len(pk.words) }

// Words returns the packed outcome words in bucket-major order. The slice is
// shared; callers must not mutate it.
func (pk *Packed) Words() []uint64 { return pk.words }

// Probs returns the probabilities parallel to Words. The slice is shared;
// callers must not mutate it.
func (pk *Packed) Probs() []float64 { return pk.probs }

// Ranks returns the global ranks parallel to Words — ascending within each
// bucket. The slice is shared; callers must not mutate it.
func (pk *Packed) Ranks() []int32 { return pk.ranks }

// Bucket returns the half-open [lo, hi) span of Hamming-weight bucket w in
// the packed arrays; lo == hi for an empty or out-of-range bucket.
func (pk *Packed) Bucket(w int) (lo, hi int) {
	if w < 0 || w > pk.n {
		return 0, 0
	}
	return int(pk.start[w]), int(pk.start[w+1])
}

// SuffixAfter returns the start of the suffix of bucket w holding entries of
// global rank strictly greater than rank (the triangular candidate set), as
// an index into the packed arrays; the suffix ends at the bucket's hi bound.
// Ranks ascend within a bucket, so this is one binary search.
func (pk *Packed) SuffixAfter(w, rank int) int {
	lo, hi := pk.Bucket(w)
	r := int32(rank)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pk.ranks[mid] > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
