// Package dist is the distribution layer of the HAMMER reproduction: the
// sparse and dense probability-histogram types every other layer builds on,
// plus the index structures (index.go, packed.go, multiindex.go) that the
// reconstruction engines' pairwise scans walk.
//
// Three representations cover the pipeline end to end:
//
//   - Vector — a dense probability array over all 2^n outcomes, the natural
//     output of the statevector and density-matrix simulators and the form
//     the distribution-level noise channels operate on.
//   - Dist — a sparse distribution held as its entries in ascending outcome
//     order plus the total: readers walk the slice, and a lookup is a
//     binary search. It is the form HAMMER and every analysis package
//     consume. Measured histograms are sparse: even 256K trials on a
//     20-qubit program touch a vanishing fraction of the 2^20 outcomes.
//     Builder accumulates one outcome by outcome in any order and
//     radix-sorts once, for the callers whose outcomes arrive unsorted.
//   - Counts — sparse integer shot counts, the raw form finite-shot
//     sampling produces.
//
// On top of those sit the index structures the engines query:
//
//   - Index — the rank order of a Dist: its outcomes by descending
//     probability, ties by ascending outcome, each with its Hamming weight
//     and its position in the Dist, plus the bounds of the weight buckets
//     (how many outcomes hold each weight). It is built in O(N): its
//     entries arrive in ascending outcome order, so a stable radix sort on
//     a descending-probability key ranks them with no comparator. It holds
//     32 bytes per outcome.
//   - Packed — the one weight-bucketed layout, built from an Index for the
//     blocked engine's flat scans: one contiguous []uint64 of outcome words
//     in bucket-major order (ascending weight, within-bucket ascending
//     rank), with probabilities and ranks in parallel arrays and the
//     index's bucket bounds. |popcount(x)−popcount(y)| ≤ d(x,y), so a
//     radius-d scan around x reads only the 2d+1 buckets around x's
//     weight. Because within-bucket order is ascending rank, the triangular
//     "ranks after r" suffix of any bucket is one contiguous span found by
//     a single binary search (SuffixAfter). It holds 20 bytes per outcome.
//   - MultiIndex — the blocked engine's small-radius alternative to the
//     weight window: at radius r the bits split into r+1 contiguous blocks
//     (a pair within distance r agrees on at least one), and each block
//     holds the ranked outcomes counting-sorted by (block key, rank), so a
//     row's candidates in a block are the entries after it in its bucket —
//     one contiguous span. Index.WindowPairs and MultiIndex.Reset count the
//     candidate pairs of either scan exactly, from bucket sizes, before
//     either layout is built.
//
// The wire form of a histogram — a JSON object of bitstring → mass — is
// decided here too, in one module (histogram.go, json.go):
//
//   - Histogram decodes the object in one pass into Entry values sorted by
//     outcome with their raw masses, plus the width, and rejects exactly
//     what encoding/json into a map[string]float64 followed by
//     FromHistogram rejects. It keeps that map's semantics (repeated
//     members merge, null empties). Outcomes repeated out of order are
//     folded while decoding, so its memory follows the distinct outcomes,
//     not the members, and its first allocation is sized from its own
//     object, not from the rest of the document.
//   - Scanner walks a document that embeds histograms — a request wrapper,
//     a batch envelope — with Object, Array and Skip, and decodes each
//     histogram in place, so a request body is read in one pass. It accepts
//     exactly the documents encoding/json accepts, nesting depth included,
//     and KeyIs matches member names as encoding/json matches struct fields.
//   - FromEntries takes such entries over as the normalized Dist, adding
//     mass in ascending outcome order: bit-identical to FromHistogram of the
//     same histogram, which is key parsing in front of it, so histogram
//     validation exists once (checkEntries).
//   - AppendJSON renders a Dist back into the object at a given prefix and
//     indent, byte for byte as json.MarshalIndent renders ToHistogram(d):
//     ascending outcomes, floats formatted as encoding/json formats them.
//   - FromHistogram and ToHistogram keep the string-keyed map form for the
//     library facade.
//
// Synthetic is the one generator of the paper's §6.6 benchmark workload (a
// Hamming-clustered core plus a uniform tail); the cost-model calibration
// and every micro-benchmark build their inputs with it.
//
// # Contract
//
//   - Goroutine safety: no type in this package is safe for concurrent
//     mutation. Concurrent read-only access (Range, and reads of a built
//     Index, Packed or MultiIndex) is safe; the engines rely on exactly that
//     in their parallel scans.
//   - Determinism: all iteration orders are deterministic — Dist and Counts
//     range in ascending outcome order, an Index's ranked entries and each
//     Packed bucket in (descending probability, ascending outcome) order —
//     so every experiment in the repository reproduces bit-for-bit from its
//     seed. FromHistogram and FromEntries accumulate mass in ascending
//     outcome order, and TVD adds its terms in a fixed order, for the same
//     reason. A Builder's total is summed in call order, so a caller that
//     builds from a map visits the map in ascending outcome order.
//   - Reuse: Dist.Reset takes over entries its caller reuses, and
//     Index.Reset, Packed.Reset and MultiIndex.Reset rebuild in place
//     without shedding capacity; the request-oriented core's 0 allocs/op
//     after warm-up depends on these paths not allocating for same-shape
//     problems.
package dist
