package dist

import "math/bits"

// MultiIndex is the pigeonhole multi-index companion of Index for
// small-radius pair scans (Norouzi, Punjani & Fleet, "Fast Search in Hamming
// Space with Multi-Index Hashing", CVPR 2012). At radius r the n outcome bits
// split into r+1 contiguous blocks; two outcomes within distance r differ in
// at most r bits, so they agree exactly on at least one block. Each block
// keeps its own copy of the ranked outcomes, counting-sorted by (block key,
// rank), so the candidates of the rank-i outcome in block b — every entry
// ranked after it that shares its bucket — are one contiguous span:
//
//	words: [ block 0: bucket 0 | bucket 1 | ... ][ block 1: ... ] ...
//	probs: [  parallel probabilities, same order                  ]
//	spans: [ rank 0: block 0 [lo, hi) | block 1 [lo, hi) | ... ][ rank 1 ... ]
//
// where a rank's span in block b runs from just past its own slot to the end
// of its bucket, so the spans of one row sit side by side.
//
// A block no wider than the bucket key (bits.Len(N) bits, so a block has at
// most ~2N buckets) is keyed by its value: a bucket holds exactly the
// outcomes agreeing on the block. A wider block is keyed by a multiplicative
// hash of its value, so a bucket may also hold outcomes that merely collide;
// scans confirm agreement with the block masks (Masks) before crediting a
// pair, and credit it only in the first block on which the two outcomes
// agree, so every pair within the radius is credited exactly once.
//
// Like Index and Packed, a MultiIndex is rebuilt in place (Reset) without
// shedding capacity, and is immutable between Resets; concurrent read-only
// access is safe.
type MultiIndex struct {
	blocks, keyBits int
	shift           [64]uint8
	width           [64]uint8
	masks           [64]uint64 // in-place block masks; blocks of them used
	hist            []int32    // per-block bucket counts, then cursors
	spans           []int32    // spans[2*(i*blocks+b)+{0,1}]: rank i's candidates in block b
	words           []uint64
	probs           []float64
}

// fibHash is 2^64 divided by the golden ratio: the multiplier of the
// Fibonacci hash that keys blocks wider than the bucket key.
const fibHash = 0x9E3779B97F4A7C15

// blockWidth returns the width of block b when n bits split into the given
// number of contiguous blocks: the first n mod blocks blocks take one bit
// more than the rest, so widths differ by at most one.
func blockWidth(n, blocks, b int) int {
	w := n / blocks
	if b < n%blocks {
		w++
	}
	return w
}

// Reset rebuilds the multi-index of ix at the given radius in place, if the
// multi-index scan would visit at most limit candidate pairs, and reports
// whether it did. The candidate count is exact: the unordered pairs of
// distinct outcomes that share a bucket, summed over the radius+1 blocks,
// from one histogram pass per block — O((radius+1)·N), so a caller can
// afford to ask on every request. Reset returns it when the layout is built;
// otherwise the histogram passes stop at the first block that takes the
// count past the limit, and the partial count returned already exceeds it.
// The radius must be below the outcome width (every block at least one bit
// wide).
func (mi *MultiIndex) Reset(ix *Index, radius int, limit int64) (candidates int64, built bool) {
	n, N := ix.NumBits(), ix.Len()
	if radius < 0 || radius >= n {
		panic("dist: multi-index radius out of range [0, width)")
	}
	B := radius + 1
	mi.blocks, mi.keyBits = B, bits.Len(uint(N))
	widest, off := 0, 0
	for b := 0; b < B; b++ {
		w := blockWidth(n, B, b)
		mi.shift[b], mi.width[b] = uint8(off), uint8(w)
		mi.masks[b] = (^uint64(0) >> (64 - w)) << off
		off += w
		widest = max(widest, min(w, mi.keyBits))
	}
	buckets := 1 << widest
	if cap(mi.hist) < B*buckets {
		mi.hist = make([]int32, B*buckets)
	}
	mi.hist = mi.hist[:B*buckets]
	clear(mi.hist)

	ranked := ix.Ranked()
	for b := 0; b < B; b++ {
		hist := mi.hist[b*buckets : (b+1)*buckets]
		for i := range ranked {
			hist[mi.key(b, ranked[i].X)]++
		}
		for _, c := range hist {
			candidates += int64(c) * int64(c-1) / 2
		}
		if candidates > limit {
			return candidates, false
		}
	}

	total := B * N
	if cap(mi.words) < total {
		mi.words = make([]uint64, total)
		mi.probs = make([]float64, total)
		mi.spans = make([]int32, 2*total)
	}
	mi.words, mi.probs, mi.spans = mi.words[:total], mi.probs[:total], mi.spans[:2*total]
	for b := 0; b < B; b++ {
		// Exclusive prefix sums turn the counts into bucket cursors, and a
		// stable scatter in rank order keeps every bucket rank-ascending.
		// Each rank's candidates start right after its own slot; once the
		// scatter is done, its bucket's cursor is where they end.
		cur := mi.hist[b*buckets : (b+1)*buckets]
		next := int32(b * N)
		for k, c := range cur {
			cur[k] = next
			next += c
		}
		for i := range ranked {
			e := &ranked[i]
			k := mi.key(b, e.X)
			slot := cur[k]
			cur[k]++
			mi.words[slot] = e.X
			mi.probs[slot] = e.P
			mi.spans[2*(i*B+b)] = slot + 1
		}
		for i := range ranked {
			mi.spans[2*(i*B+b)+1] = cur[mi.key(b, ranked[i].X)]
		}
	}
	return candidates, true
}

// key returns the bucket of outcome x in block b: the block's value when it
// fits the bucket key, its Fibonacci hash otherwise.
func (mi *MultiIndex) key(b int, x uint64) int {
	v := (x & mi.masks[b]) >> mi.shift[b]
	if int(mi.width[b]) > mi.keyBits {
		return int((v * fibHash) >> (64 - mi.keyBits))
	}
	return int(v)
}

// Masks returns the in-place bit masks of the blocks, one per block in
// ascending bit order (radius+1 of them): outcomes x and y agree on block b
// exactly when (x^y)&Masks()[b] == 0. The slice is shared; callers must not
// mutate it.
func (mi *MultiIndex) Masks() []uint64 { return mi.masks[:mi.blocks] }

// After returns the candidates of the rank-i outcome in block b: the words
// and probabilities of the entries ranked after it in its bucket, in
// ascending rank order. Both slices are shared; callers must not mutate them.
func (mi *MultiIndex) After(b, i int) (words []uint64, probs []float64) {
	k := 2 * (i*mi.blocks + b)
	lo, hi := mi.spans[k], mi.spans[k+1]
	return mi.words[lo:hi], mi.probs[lo:hi]
}

// WindowPairs returns the exact number of candidate pairs a weight-window
// scan at the given radius visits: the unordered pairs of distinct outcomes
// whose Hamming weights differ by at most radius. It takes O(n·radius) from
// the index's bucket bounds, before any scan structure is built.
func (ix *Index) WindowPairs(radius int) int64 {
	var total int64
	for w := 0; w <= ix.n; w++ {
		c := int64(ix.start[w+1] - ix.start[w])
		total += c * (c - 1) / 2
		for v := w + 1; v <= ix.n && v <= w+radius; v++ {
			total += c * int64(ix.start[v+1]-ix.start[v])
		}
	}
	return total
}
