// Package sched schedules many independent HAMMER reconstructions against one
// bounded worker budget. HAMMER's cost is quadratic in unique outcomes and
// independent of qubit count, which makes reconstruction a natural
// high-throughput classical service — but a service schedules requests, not
// goroutines: unbounded per-request fan-out oversubscribes the host the
// moment two requests race, and per-request state (index, accumulator matrix,
// output distribution) is far too expensive to rebuild from scratch per call.
//
// # Contract
//
//   - Goroutine safety: a Scheduler is safe for concurrent use; Reconstruct,
//     Batch, and Do may be called from any number of goroutines.
//   - One budget, one slot path: a single shared semaphore of Workers
//     slots bounds everything CPU-bound, and DoBudgeted is the only code
//     that takes a slot from it. Reconstruct runs through it, each Batch
//     member is a Reconstruct of its own (so it gets its own prediction,
//     deadline admission, pooled session and SPJF rank), Do is DoBudgeted
//     with no prediction and no deadline (streaming snapshots), and the
//     serving layer's sharded requests and replica stripes call it
//     directly. No combination of request types can oversubscribe the host.
//   - Reuse: each request is served by a core.Session drawn from a
//     sync.Pool, so steady-state traffic reconstructs allocation-free in
//     the core. Per-request option overrides (Request.Opts) are honored by
//     reconfiguring the pooled session in place — warm scratch buffers are
//     kept, sessions are never rebuilt or errored over an option mismatch.
//     Request.Opts.Workers is ignored: intra-request parallelism is the
//     scheduler's own setting (default 1), so overrides cannot multiply
//     request-level concurrency by per-request fan-out.
//   - Ownership: results handed to consume callbacks are session-owned and
//     recycled after the callback returns; callbacks copy what they keep.
//     Batch consume callbacks run concurrently for distinct indices —
//     writing to distinct slots of a preallocated slice needs no locking.
//   - Ordering and failure: batches preserve input order regardless of
//     completion order and fail fast — the first error cancels the context
//     threaded through every in-flight scoring scan and is returned as a
//     *BatchError carrying the lowest genuinely failing index.
//   - Observability: Instrument attaches an optional Metrics set (queue
//     depth, in-flight count, wait and run latency histograms, cost
//     predicted against actual, deadline rejections) before the scheduler
//     starts serving. Uninstrumented schedulers pay one nil check per
//     request; instrumented ones a few atomic updates and a few clock
//     reads. The one slot path reports every request through the same
//     instruments: a Batch member is observed in the wait, run and cost
//     series exactly as a single Reconstruct is.
package sched
