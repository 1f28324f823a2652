// Package core implements Hamming Reconstruction (HAMMER), the paper's
// primary contribution (§4 and Algorithm 1 in the appendix).
//
// HAMMER is a post-processing pass over the noisy output distribution of a
// NISQ program. For every unique outcome x it computes a likelihood
//
//	L(x) = Pr(x) × S(x)
//
// where the neighborhood score S(x) is a weighted sum over the Cumulative
// Hamming Strength (CHS) of x's Hamming neighborhood. Per-distance weights
// are the inverse of the globally accumulated CHS, neighborhoods are capped
// at Hamming distance < n/2, and a filter admits only neighbors with lower
// probability than x so that spurious low-probability outcomes cannot profit
// from rich neighborhoods. The reconstructed distribution is L normalized.
//
// # Engines
//
// The pairwise scan that dominates the cost is delegated to a pluggable
// Engine (engine.go), selected by name from a fixed table (Lookup in
// registry.go): "exact" is the reference O(N²) loop
// matching Algorithm 1 line by line; "blocked" computes the same quantities
// in one fused triangular pass over the rank-ordered index of the dist
// package, with a flat inner loop over whichever of two candidate
// generators visits fewer pairs — the bit-packed weight window
// (dist.Packed; branchless tiles into distance-indexed banks, each bucket's
// span starting at a rank cursor seeded once per stripe; the scan at the
// paper's default radius) or, at small radii, the pigeonhole block
// multi-index (dist.MultiIndex), chosen per request from exact candidate
// counts; and "incremental" is the streaming-only state of incremental.go.
// The retired name "bucketed" resolves to blocked. Both batch engines
// produce identical reconstructions up to float64 rounding (pinned to 1e-12
// by the cross-engine goldens, a metamorphic relabeling oracle, and a
// fuzzer); auto-selection asks the cost model for the cheaper of the two
// unless Options.Engine pins one. Unknown and streaming-only names flow back
// as errors from one choke point (Lookup) on every path.
//
// The incremental engine keeps its state on flat slot-indexed arrays: each
// outcome gets a slot on first sight (the outcome→slot map is consulted
// only by Add), masses, last-synced masses and dirty flags are
// slot-indexed slices, and the count-space neighborhood rows — unfiltered
// and admitted strength per distance — sit in one []float64 matrix of
// stride radius+1 per row, like blocked's A matrix. Ball walks loop over
// per-weight arrays of packed outcomes and their slots. A snapshot makes
// one walk per changed outcome: the walk rebuilds that outcome's own row
// and delta-patches only its clean (unchanged) neighbors' rows, never
// another changed outcome's, which its own walk rebuilds. Each walk takes
// its candidates in two passes: a branch-free compaction writes every
// candidate into a stack buffer and advances only past those within the
// radius, and a dense pass applies those hits in candidate order. On a
// stream's usual traffic about 41% of candidates are hits, so a branch on
// the distance would be mispredicted often; the two passes make the same
// additions in the same order, so snapshots keep their bits.
//
// Blocked's multi-index candidate search and the walk's compaction each
// have an amd64 assembly body beside their Go loop (kernel_amd64.s),
// chosen once at init when the CPU and the OS support AVX512F, AVX512VL
// and AVX512_VPOPCNTDQ. The assembly returns exactly what the Go loop
// returns, so no output bit depends on the host; ScanKernel names the
// bodies that run.
//
// # Contract
//
// The package is request-oriented around Session (session.go):
//
//   - Reuse: a Session holds one validated set of Options plus every scratch
//     buffer a reconstruction needs. Buffers grow to the high-water mark of
//     the problems scored through them and are reused thereafter; after
//     warm-up, repeated Reconstruct calls on similarly sized problems are
//     0 allocs/op (pinned by BenchmarkSessionReuse; the TopM truncation path
//     and the DisableFilter multi-worker ablation still allocate small
//     sort/slab state).
//   - Ownership: the Result a Session returns — Out, GlobalCHS, Weights —
//     is session-owned and overwritten by the next Reconstruct call. Callers
//     that keep it copy it first.
//   - Goroutine safety: a Session (and a Scratch, and an Incremental) is NOT
//     safe for concurrent use; each serves one request at a time. The
//     engine table (Lookup) IS safe for concurrent use. Inside one
//     reconstruction the engines fan work out across Options.Workers
//     goroutines with disjoint-write ownership — no locks — and results are
//     deterministic for a fixed worker count.
//   - Reconfiguration: CompatibleWith/Reconfigure swap a session's options
//     in place without touching scratch state (no option-derived buffers
//     exist), which is how the scheduler serves per-request option
//     overrides from pooled warm sessions.
//   - Cancellation: a context canceled mid-request aborts the parallel
//     scans between rows; the error is ctx.Err() and the session remains
//     reusable.
//
// Reconstruct/Run are the one-shot conveniences over a throwaway session
// (they panic on invalid options, preserving the historical contract; every
// other path surfaces errors). The scheduler (internal/sched) pools sessions
// to serve concurrent request traffic; the stream layer (internal/stream)
// drives Incremental for shot-at-a-time ingestion.
package core
