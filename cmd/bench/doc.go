// Command bench is the repository's serving benchmark. It builds
// ./cmd/hammerctl, starts `hammerctl serve -addr 127.0.0.1:0 -workers 2`
// fresh for every round, and drives it over loopback from one process with
// GOMAXPROCS=2 and at most two HTTP connections. HAMMER runs as
// post-processing after every circuit execution, so what a user feels is the
// latency and throughput of this serving path, not of one kernel.
//
// It is a package of the repository's module, so `go build ./...`, `go vet
// ./...` and `go test ./...` cover it. Its tests include TestSmoke, which
// builds hammerctl and runs every workload for one tiny round with the traced
// replay (about 15 s on two cores); -short skips it.
//
// # Running
//
// From the repository root, `go run ./cmd/bench -seed 1` runs every workload.
// run.sh builds the benchmark with the Go build cache, temporary files and
// binaries under .bench_build/ at the repository root, then runs it from the
// root with the arguments given:
//
//	sh cmd/bench/run.sh -seed 1 -out results.json
//	sh cmd/bench/run.sh -seed 1 -trace trace.json
//	sh cmd/bench/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
//	sh cmd/bench/run.sh -compare a1.json a2.json a3.json -- b1.json b2.json b3.json
//
// Without -workload every workload runs 5 rounds. Rounds interleave across
// workloads and the start order rotates each round, so a slow spell of the
// host spreads over all of them. Each round does a fixed amount of work, so
// memory and cache state compare at equal work across commits. Each round
// starts a fresh server and warms it up untimed. The command prints every
// metric with its unit, its workload and its sample count, and -out writes
// the same as JSON.
//
// With -workload it runs that workload's rounds until their timed windows add
// up to -seconds. It prints the table to standard error and, as the last line
// of standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}. The metrics are the end-to-end ones with -trace 0 and the
// per-layer ones BENCHMARK.json lists with -trace 1.
//
// -trace 1 (or -trace FILE, which also writes the spans to FILE) adds the
// traced replay described below to the measured run. -compare reads -out
// files and prints, per workload and end-to-end metric, each side's median
// and quartiles, how many of the pairs (a[i], b[i]) the right side won, and a
// verdict. The verdict is "regressed" when the right median is worse than the
// left by more than the metric's bound, and "unresolved" when either side's
// quartile spread is wider than the bound and the right side does not beat
// the left on every run. Otherwise it is "ok". It exits 1 if any row
// regressed. Alternate the two commits' runs when collecting the files.
//
// The seed generates every input; the server only sees the generated bodies.
// After each round, outside the timed window, the benchmark checks outputs:
// every 25th sweep, tight and batch response must match hammer.RunWithConfig
// on the decoded request to 1e-12 per outcome; every repeat hit must equal,
// byte for byte, the miss body its warm-up request returned; and each stream
// session's final GET /v1/stream/{id} must match hammer.RunCounts of exactly
// the counts sent (journaled seed plus acknowledged ingests) to 1e-12, with
// the exact shot count. It also asserts each workload's shape: sweep and
// tight are all X-Hammer-Cache misses and repeat all hits. A failed request,
// a failed check or a failed assertion marks the run incorrect and makes it
// exit 1.
//
// # Host speed
//
// On a shared machine the speed of the cores drifts, by up to a factor of two
// over minutes, as other tenants come and go. On a two-core Xeon virtual
// machine the unscaled end-to-end figures spread by 0.1-0.3 of their median
// between runs of one commit (tails by up to 0.75), wider than any change
// the benchmark should detect; scaled as below, by 0.01-0.13. So the
// benchmark times a fixed kernel of its own (calibrate.go: chunks of a
// pairwise Hamming scan and a response-sized copy, shared by two goroutines
// like the server's two workers) with the server stopped by SIGSTOP, before
// every server start and, within a round, before its first timed segment and
// after each of its 6 segments. A round's times are multiplied by calNominal
// over the median of its calibrations' pass times, and a start-up time by
// calNominal over the pass time of the calibration just before it. Reported
// times are thus what the server would take on a host that runs the kernel
// in calNominal, an idle two-core 2.1 GHz Xeon. No change to the repository
// can move the kernel, and the server is stopped while it runs. The table
// prints host.slowdown, the kernel's time over calNominal, and raw.* figures,
// the end-to-end ones unscaled.
//
// # Workloads
//
// Every workload is a closed loop of two clients, each sending its next
// request once its previous response has been read.
//
//	name    requests per round  inputs
//	sweep   120                 POST /v1/reconstruct, bare 20-bit histograms with 4000 outcomes
//	                            in the §6.6 shape (a key outcome, its single-bit flips, a
//	                            uniform tail), cycling through 8; the key's count differs per
//	                            request, so every request misses the cache
//	tight   200                 the same histograms as {"counts": ..., "config": {"radius": 3}}
//	repeat  1200                64 distinct 20-bit/4000 histograms, filled into the cache
//	                            untimed; every timed request is a hit
//	batch   240                 POST /v1/batch with 16 12-bit/256-outcome histograms
//	stream  800                 64-shot JSON ingests into 2 of 8 sessions recovered from a
//	                            journal seeded before the server starts (-data, -wal-sync
//	                            never, 20-bit, 2000 outcomes), one client per session; every
//	                            2nd ingest is ?snapshot=1
//
// Why each exists:
//
//   - sweep models a QAOA optimizer's iterations: every request is new work
//     and the pairwise scan dominates, while the cache's miss path (key and
//     put) runs every time.
//   - tight covers the small-radius regime, where the cost model picks the
//     bucketed engine over blocked. A change that merges the two engines must
//     not slow it. It also exercises decoding of the wrapped body.
//   - repeat models repeated identical requests. The core does no work;
//     request decode, the cache key and the 190 KB response write dominate.
//   - batch covers many small circuits, where per-outcome layers (decode,
//     dist.FromHistogram, dist.ToHistogram, encode) and sched.Batch fan-out
//     weigh as much as the scan.
//   - stream puts writes (ingest and WAL append) beside reads (incremental
//     snapshots) and bypasses the result cache and the batch engines. Its
//     set-up includes journal recovery. Its clients model producers that wait
//     for each acknowledgement. The two kinds of ingest are timed apart:
//     latency_p50_ms and latency_p95_ms time those that ask for a snapshot,
//     which return the reconstruction the producer waits for, and
//     ingest_p50_ms and ingest_p95_ms, in the table and -compare only, time
//     the plain ones; throughput_ops and cpu_ms_per_op count both. The plain
//     ingests take about 0.25 ms, so their tail follows the virtual machine's
//     scheduling more than the server: in seven sets of ten seeds their p95
//     spread by 0.08-0.62 of its median, 1.2 to 4.5 times as much as the
//     snapshots' p95 in the same set. The workload is a closed loop, not the
//     open loop at a fixed rate (96 ingests/s) first planned: at a third of
//     the two cores that loop's latency measured mostly the virtual machine's
//     wake-up delays and the generator's own lateness, and its tail spread by
//     0.2-1.8 of its median between runs of one commit. So the benchmark
//     measures no capacity, no share of ops within a latency limit and no
//     backlog.
//
// On batch an op is one /v1/batch request, on stream one ingest.
//
// # End-to-end metrics
//
// Measured with tracing off, times scaled to nominal host speed. Bounds are
// shares of the baseline median; BENCHMARK.json holds the same.
//
//	name            unit   better  bound  definition
//	setup_s         s      lower   0.25   median over at least 31 starts (the rounds' own, then
//	                                      set-up probes) of the time from exec to the first 200
//	                                      from /healthz; on stream it includes journal recovery
//	throughput_ops  ops/s  higher  0.20   median over rounds of successful ops per second
//	latency_p50_ms  ms     lower   0.20   median over rounds of each round's nearest-rank p50 of
//	                                      the time from send to the whole response read; on
//	                                      stream, of the ingests that ask for a snapshot
//	latency_p95_ms  ms     lower   0.25   as above, each round's p95
//	cpu_ms_per_op   ms     lower   0.25   median over rounds of the server's on-CPU time
//	                                      (/proc/<pid>/task/*/schedstat) over successful ops
//	rss_peak_mb     MiB    lower   0.15   median over rounds of the server's VmHWM at round end
//
// The tail is p95, not the highest percentile that leaves ten samples beyond
// it (about p99 at these sample sizes): on a shared two-core Xeon virtual
// machine, scaled p99 spread by 0.1-0.5 of its median between runs of one
// commit on batch and stream, wider than any usable bound, while p95 stayed
// near 0.1 or below. A percentile is taken per round and the median over
// rounds reported, as for the other per-round figures, so that one round in
// which other tenants slowed the host moves none of them; pooled over rounds,
// the stream snapshots' p95 spread by 0.41 over ten seeds in one such spell,
// the median over rounds by 0.21. The sample count printed is the pooled one;
// it leaves more than ten samples beyond the p95 on every workload, a single
// round of sweep six.
//
// Each bound is about three times the widest spread (quartile distance over
// median) its metric showed over ten seeds on any workload, and at most 0.25;
// STABILITY.md beside this file records the spreads and a -compare of two
// sets of runs of one commit.
//
// The table also prints error_rate, failed ops over attempted; any failure
// fails the run. An end-to-end metric must never read 0, so error_rate is not
// one: the JSON line carries it as "failed" over "attempted".
//
// # Per-layer metrics
//
// Layers are named after the packages. Scrape metrics are deltas of the
// server's own /metrics taken before and after each round's timed window.
// Trace metrics come from the replay: a per-request mean of self time, or
// for the kernel pass a per-input mean. Layer times are not scaled.
//
// BENCHMARK.json lists the layer metrics a change to one layer is most likely
// to move, and -trace 1 puts them in the JSON line; on a workload that does
// not exercise the layer (the WAL outside stream, the cost model's record
// outside sweep and tight) one reads 0 with 0 samples. The table and -out add the rest, marked
// below with an asterisk, which read 0 likewise where their layer is not
// exercised.
//
//	metric                       source    should move                 on workload
//	hammerctl.handler_ms         scrape    latency_p50_ms              all
//	hammerctl.outside_slot_ms    scrape    latency_p50, throughput     repeat, batch
//	hammerctl.decode_ms          trace     latency_p50_ms              repeat, tight
//	hammerctl.encode_ms          trace     cpu_ms_per_op               sweep, batch
//	client.overhead_ms           both      latency_p50_ms              repeat
//	cache.key_ms *               trace     latency_p50_ms              repeat
//	cache.evictions *            scrape    rss_peak_mb                 repeat
//	dist.from_histogram_ms *     trace     throughput_ops              batch, sweep
//	dist.to_histogram_ms *       trace     throughput_ops              batch, sweep
//	dist.index_ms, dist.pack_ms  trace     latency_p50_ms              tight, sweep
//	core.score_ms                trace     latency_p50, cpu_ms_per_op  sweep, tight
//	core.ns_per_pair             trace     latency_p50, cpu_ms_per_op  sweep, tight
//	cost.ratio_deviation         scrape    latency_p50_ms              tight
//	sched.wait_ms *              scrape    latency_p95_ms              sweep, tight
//	sched.run_ms *               scrape    latency_p50_ms              sweep, tight; stream
//	stream.ingest_ms *           trace     ingest_p50_ms               stream
//	stream.snapshot_ms *         trace     latency_p50_ms              stream
//	serve.self_ms *              trace     ingest_p50_ms               stream
//	wal.append_ms *              trace     ingest_p50, cpu_ms_per_op   stream
//	wal.bytes_per_append         scrape    cpu_ms_per_op               stream
//	wal.compactions *            scrape    cpu_ms_per_op               stream
//	wal.recover_ms *             trace     setup_s                     stream
//	trace.overhead_ratio         trace     (none)                      all
//
// hammerctl.outside_slot_ms is handler time minus the time spent waiting for
// and holding scheduler slots, per request: plain stream ingests take no
// slot, and a batch takes one per member, so on batch it can go negative.
// client.overhead_ms is the mean client latency over every op, unscaled,
// minus hammerctl.handler_ms. cost.ratio_deviation is
// |mean(actual/predicted) - 1| over the server's hammer_cost_error_ratio.
// core.ns_per_pair is the scan alone: score time minus the index and
// packed-view builds the engine does inside Score, over N(N-1)/2 pairs.
//
// # Diagnostics
//
// The table and -out also print values that say which path a workload took,
// not how fast it went, so they have no direction and are not in
// BENCHMARK.json. cache.hit_ratio is the result cache's hits over lookups in
// the scrape. core.engine.<name>_share counts X-Hammer-Engine headers, or on
// batch and stream the engine named in the checked response bodies; on
// repeat the header names the engine that computed the cached entry. The
// values seen on a two-core Xeon virtual machine:
//
//	workload  cache.hit_ratio     engine
//	sweep     0                   blocked
//	tight     0                   bucketed (blocked is slower at radius 3)
//	repeat    1                   blocked
//	batch     0 (no cache lookup) blocked
//	stream    0 (no cache lookup) incremental
//
// The shape assertions hold the cache figures; a change of engine on a
// workload is a change of the work it measures and should be explained.
//
// # Traced replay
//
// -trace replays each workload's seeded requests in process (sequentially,
// on a two-worker scheduler) through the calls the handlers make:
// json.Unmarshal, cache.Key and cache.LRU, dist.FromHistogram,
// sched.Scheduler.Reconstruct or Batch instrumented with the benchmark's own
// sched.Metrics, dist.ToHistogram, the indented JSON encode, and on stream
// serve.Manager.Recover on the seeded journal, then serve.Manager.DoSession
// into stream.Stream.IngestN and Snapshot and serve.Session.Record on a
// wal.Store. The handlers' decode and encode are private to cmd/hammerctl,
// so the replay mirrors them. Each span records a name, start, end, parent
// span and request id; spans stay in memory until the run ends. A kernel pass
// then times dist.Index.Reset, dist.Packed.Reset and the chosen engine's
// core.Engine.Score on the inputs the replay reconstructed (on stream, the
// one-shot reconstruction of each active session's seeded histogram, since
// snapshots run the incremental engine). The run prints each layer's self
// time (its span minus the union of its children's) and how much of the
// requests' wall time the layers cover; on batch, whose members run two at a
// time, they cover more than all of it. trace.overhead_ratio is the median
// wall time of three traced replay passes over that of three untraced ones,
// alternated after a warm-up pass.
//
// # Not covered
//
//   - Sharding, peer caches and quotas: they need more server processes than
//     the two cores hold.
//   - Open-loop arrivals at a fixed rate, and with them capacity, latency
//     limits and backlog: see stream above.
//   - fsync: journals run with -wal-sync never, so the figures do not depend
//     on the disk under the benchmark.
//   - Spans inside the server: the replay times the same calls from outside.
package main
