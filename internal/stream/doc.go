// Package stream ingests measurement shots incrementally and serves HAMMER
// reconstructions of the histogram accumulated so far. A real deployment
// receives shots as a stream — a long-running experiment wants reconstructed
// snapshots long before the run finishes — so instead of re-running the batch
// pipeline per request, the stream maintains the shot counts and the engine's
// CHS/neighborhood state incrementally (internal/core.Incremental, on flat
// slot-indexed arrays) and invalidates only the Hamming neighborhoods the
// new shots touched.
//
// # Contract
//
//   - Goroutine safety: a Stream is NOT safe for concurrent use; callers
//     serialize ingestion and snapshots (the HTTP serving layer does this
//     through internal/serve's per-session mutexes).
//   - Reuse: exactly one histogram copy is kept per stream — the incremental
//     engine's slot-indexed masses on the incremental path, a plain count
//     histogram on the batch fallback — plus, incrementally, the
//     per-outcome neighborhood rows that survive across snapshots (allocated
//     at the first snapshot that sees an outcome). Ingestion is O(1) per
//     shot; an incremental snapshot pays only for the neighborhoods the new
//     shots touched (plus a periodic anti-drift full resync).
//   - Bounds: a stream holds at most dist.MaxShots shots, the total the
//     write-ahead log replays and float64 masses represent exactly. Every
//     ingest is checked against it (CheckShots) before any shot lands.
//   - Fallback: all batch options remain available. Configurations the
//     incremental state cannot serve (TopM truncation, an explicitly pinned
//     batch engine — the Incremental predicate) transparently run the full
//     batch pipeline over the accumulated counts at each snapshot.
//   - Agreement: either way, a snapshot agrees with the batch pipeline on
//     the same accumulated histogram (pinned to 1e-12 by property tests
//     interleaving random ingest batch sizes).
//   - Ownership: Snapshot's Result is owned by the stream's engine state on
//     the incremental path and overwritten by the next snapshot; callers
//     that keep it copy it first. Counts() returns an independent copy.
package stream
