// Package cache is the serving layer's result cache: a mutex-guarded,
// fixed-capacity LRU keyed by a canonical hash of (histogram, options), so a
// repeated identical reconstruction request — the QAOA-optimizer pattern of
// re-evaluating near-identical landscapes — is served from memory without
// touching the scheduler or an engine.
//
// Contract:
//
//   - Keys. Key(histogram, opts) is a canonical SHA-256: histogram entries
//     are hashed in sorted key order with exact float64 bit patterns, so two
//     maps with equal contents produce one key regardless of Go's randomized
//     map iteration order. Every result-affecting option field (radius,
//     weight scheme, filter, TopM, engine — with "" normalized to "auto")
//     participates; Workers deliberately does not, because parallelism never
//     changes a reconstruction's output. KeyEntries(entries, n, opts) is the
//     same key for a validated histogram already decoded into sorted n-bit
//     entries (dist.Histogram): both feed SHA-256 one byte stream through one
//     serializer, so keys are unchanged from the map form — existing
//     -cache-dir files and replicas of either version keep hitting.
//   - Values. The LRU stores values by assignment. Callers must only cache
//     immutable (never-mutated-after-Put) values: a Get returns the stored
//     value itself, shared with every other hit.
//   - Concurrency. All methods are safe for concurrent use; Get and Put take
//     one short mutex over map + intrusive-list pointer updates, never over
//     reconstruction work. Two racing misses on one key both reconstruct and
//     both Put — idempotent by the key's construction.
//   - Eviction and stats. Put beyond capacity evicts the least recently
//     used entry (Get refreshes recency). Hits, Misses, and Evictions are
//     monotonic counters readable at any time (they feed the /metrics
//     endpoint as counters); Len is the current entry count.
//   - Nil safety. A nil *LRU — the "caching disabled" configuration — is
//     fully usable: Get always misses without counting, Put is a no-op, and
//     the accessors return zero.
//
// Tiering: Backend is the store contract the LRU (instantiated at []byte),
// the file-backed Dir, and the network Peers probe all satisfy. Tiered is
// the one chain over them, L1 → L2 → L3, and the only code that walks it:
// Fetch checks the in-memory LRU first, then the directory store (which
// survives restarts), then — because the canonical keys are
// replica-portable — the peer replicas' caches over HTTP. It promotes a
// hit into every configured tier above it, treats an entry that fails to
// parse as a miss at that tier, and after a miss everywhere stores the
// computed response in every local tier unless its body exceeds
// MaxEntryBody. Every tier holds the same bytes, one EncodeEntry frame of
// {engine, body}; L1 holds it at exactly its length. Local is the
// local-only lookup (L1 then L2, no peers, no promotion) that answers other
// replicas' probes. Dir puts are temp-file + rename so a crash never leaves
// a torn entry; keys are restricted to the exact hex-SHA-256 shape Key
// emits (ValidKey), which is what makes them safe file names and URL path
// segments. Peers is strictly best-effort: every failure class degrades to
// a miss, and a peer that keeps failing is skipped for a cooldown window
// rather than probed on every request. A nil *Dir or nil *Peers is a
// disabled tier, mirroring the nil-LRU contract, and any tier of a Tiered
// may be nil.
package cache
