package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Observability for hammerctl serve: every metric the server exports lives
// in one obs.Registry rendered at GET /metrics (Prometheus text format; the
// full reference table is docs/operations.md). Scheduler and session-manager
// instruments are wired into their packages at construction; the HTTP-level
// instruments are applied here as one middleware around every handler —
// including /metrics itself and every error path (404 routing misses, 405s,
// 413 oversized bodies, 415 content-type rejections), so the request counts
// are the server's complete traffic picture, not just its successes.

// httpMetrics is the per-request HTTP instrumentation the middleware feeds.
type httpMetrics struct {
	requests  *obs.CounterVec   // {endpoint, code class}
	latency   *obs.HistogramVec // {endpoint}
	bodyBytes *obs.CounterVec   // {endpoint}
}

// serverMetrics bundles the registry with every instrument the server owns.
type serverMetrics struct {
	reg   *obs.Registry
	sched *sched.Metrics
	serve *serve.Metrics
	shard shard.Metrics
	wal   *wal.Metrics
	http  httpMetrics
	// quota counts requests rejected by per-client quotas, by reason ("rate"
	// = token-bucket rate limit, "sessions" = per-client session cap).
	quota *obs.CounterVec
}

// newServerMetrics registers the full metric set. The session-manager gauge
// and the cache instruments read through the provided callback and tiers
// only at scrape time; a nil L1 or L2 reads as zeros — the "disabled"
// rendering. The hammer_wal_* counters are always registered; without a
// journal nothing increments them. The hammer_cache_peer* series exist only
// when the peer tier does.
func newServerMetrics(mgrLen func() int, tiers *cache.Tiered) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		sched: &sched.Metrics{
			QueueDepth: reg.Gauge("hammer_sched_queue_depth",
				"Requests currently waiting for a worker slot."),
			InFlight: reg.Gauge("hammer_sched_inflight",
				"Requests currently holding a worker slot."),
			WaitSeconds: reg.Histogram("hammer_sched_wait_seconds",
				"Time from a request's arrival to worker-slot acquisition.", obs.LatencyBuckets),
			RunSeconds: reg.Histogram("hammer_sched_run_seconds",
				"Time a request holds its worker slot.", obs.LatencyBuckets),
			PredictedSeconds: reg.HistogramVec("hammer_cost_predicted_seconds",
				"Cost-model predicted runtime of served requests, by engine.", obs.LatencyBuckets, "engine"),
			ActualSeconds: reg.HistogramVec("hammer_cost_actual_seconds",
				"Measured runtime of served requests, by engine.", obs.LatencyBuckets, "engine"),
			ErrorRatio: reg.HistogramVec("hammer_cost_error_ratio",
				"Actual/predicted runtime ratio per served request, by engine; a calibrated model concentrates mass near 1.", obs.RatioBuckets, "engine"),
			DeadlineRejected: reg.CounterVec("hammer_deadline_rejected_total",
				"Requests rejected by deadline admission, by reason (infeasible = predicted runtime exceeds the budget, overloaded = queue wait ate the budget).", "reason"),
		},
		serve: &serve.Metrics{
			Created: reg.Counter("hammer_sessions_created_total",
				"Streaming sessions created."),
			Evicted: reg.Counter("hammer_sessions_evicted_total",
				"Streaming sessions evicted by the idle TTL."),
			Adopted: reg.Counter("hammer_sessions_adopted_total",
				"Streaming sessions adopted whole from a peer's handoff."),
			HandedOff: reg.Counter("hammer_sessions_handed_off_total",
				"Streaming sessions shipped to a peer and tombstoned here."),
		},
		shard: shard.Metrics{
			StripeSeconds: reg.Histogram("hammer_shard_stripe_seconds",
				"Wall time per stripe RPC the shard coordinator issues, including attempts that fail over.", obs.LatencyBuckets),
			MergeSeconds: reg.Histogram("hammer_shard_merge_seconds",
				"Time the coordinator spends tree-merging stripe partials and re-scoring.", obs.LatencyBuckets),
			Fallbacks: reg.CounterVec("hammer_shard_fallback_total",
				"Stripes recomputed locally after their replica failed, by reason (error = RPC/decode failure, deadline = cost-model budget miss).", "reason"),
		},
		wal: &wal.Metrics{
			Appends: reg.Counter("hammer_wal_appends_total",
				"Ingest batches appended to session write-ahead logs."),
			AppendedBytes: reg.Counter("hammer_wal_appended_bytes_total",
				"Bytes appended to session write-ahead logs (compaction rewrites not included)."),
			Compactions: reg.Counter("hammer_wal_compactions_total",
				"Session logs folded into histogram snapshots."),
			Pruned: reg.Counter("hammer_wal_pruned_total",
				"Session logs removed because their session was deleted or TTL-evicted."),
			RecoveredSessions: reg.Counter("hammer_wal_recovered_sessions_total",
				"Sessions rebuilt from the journal at startup."),
			TornTails: reg.Counter("hammer_wal_torn_tails_total",
				"Logs whose torn tail (partial trailing record) was truncated during recovery."),
			CorruptLogs: reg.Counter("hammer_wal_corrupt_logs_total",
				"Logs quarantined at recovery because no valid prefix survived."),
			Imported: reg.Counter("hammer_wal_imported_total",
				"Session logs imported whole from a peer handoff."),
		},
		quota: reg.CounterVec("hammer_quota_rejected_total",
			"Requests rejected by per-client quotas, by reason (rate = token-bucket rate limit, sessions = per-client live-session cap).", "reason"),
		http: httpMetrics{
			requests: reg.CounterVec("hammer_http_requests_total",
				"HTTP requests served, by endpoint and status class.", "endpoint", "code"),
			latency: reg.HistogramVec("hammer_http_request_seconds",
				"Wall time per HTTP request, by endpoint.", obs.LatencyBuckets, "endpoint"),
			bodyBytes: reg.CounterVec("hammer_http_request_body_bytes_total",
				"Request body bytes read, by endpoint.", "endpoint"),
		},
	}
	reg.GaugeFunc("hammer_sessions_live",
		"Live streaming sessions (expired sessions swept before counting).",
		func() float64 { return float64(mgrLen()) })
	c, l2, peers := tiers.L1, tiers.L2, tiers.Peers
	reg.CounterFunc("hammer_cache_hits_total",
		"Reconstruction requests served from the result cache.", c.Hits)
	reg.CounterFunc("hammer_cache_misses_total",
		"Reconstruction requests that missed the result cache.", c.Misses)
	reg.CounterFunc("hammer_cache_evictions_total",
		"Result-cache entries evicted to make room.", c.Evictions)
	reg.GaugeFunc("hammer_cache_entries",
		"Result-cache entries currently held.",
		func() float64 { return float64(c.Len()) })
	reg.GaugeFunc("hammer_cache_capacity",
		"Result-cache entry capacity (-cache-entries; 0 = caching disabled).",
		func() float64 { return float64(c.Capacity()) })
	reg.CounterFunc("hammer_cache_l2_hits_total",
		"Reconstruction requests served from the file-backed second-level cache.", l2.Hits)
	reg.CounterFunc("hammer_cache_l2_misses_total",
		"Second-level cache lookups that found nothing.", l2.Misses)
	reg.CounterFunc("hammer_cache_l2_puts_total",
		"Entries written to the second-level cache.", l2.Puts)
	reg.CounterFunc("hammer_cache_l2_errors_total",
		"Second-level cache operations dropped on I/O failure or malformed key.", l2.Errors)
	reg.GaugeFunc("hammer_cache_l2_entries",
		"Entries currently held in the second-level cache (counted by directory walk at scrape time).",
		func() float64 { return float64(l2.Len()) })
	if peers != nil {
		reg.CounterFunc("hammer_cache_peer_hits_total",
			"Reconstruction requests served from a peer replica's cache.", peers.Hits)
		reg.CounterFunc("hammer_cache_peer_misses_total",
			"Peer-cache lookups no peer could serve.", peers.Misses)
		reg.CounterFunc("hammer_cache_peer_errors_total",
			"Failed peer probes (transport errors, timeouts, bad responses).", peers.Errors)
		reg.CounterFunc("hammer_cache_peer_skipped_total",
			"Peer probes suppressed because the peer was in its failure cooldown.", peers.Skipped)
		reg.GaugeFunc("hammer_cache_peers",
			"Configured peer replicas for the L3 cache tier.",
			func() float64 { return float64(peers.NumPeers()) })
	}
	return m
}

// routeLabel maps the mux's matched pattern onto the metrics endpoint
// label: the pattern itself ("/v1/stream/{id}" — session ids never become
// label values, so cardinality is bounded by the route table), with the "/"
// catch-all's traffic — the 404s — folded into "other".
func routeLabel(r *http.Request) string {
	if r.Pattern == "" || r.Pattern == "/" {
		return "other"
	}
	return r.Pattern
}

// statusWriter captures the response status for the request counter; an
// implicit WriteHeader (the first Write) records 200 like net/http does.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer to http.ResponseController and to
// unwrapWriter — net/http's MaxBytesReader signals "mark this connection
// Connection: close" through a private type assertion on the writer it is
// handed, which a wrapper would silently defeat.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingBody counts the request-body bytes the handler actually read
// (which the 413 path caps at the body limit plus one probe byte).
type countingBody struct {
	rc io.ReadCloser
	n  int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// statusClass folds a status code into its Prometheus label ("2xx".."5xx");
// nonstandard codes like 499 fold into their hundreds class too.
func statusClass(status int) string {
	if status >= 100 && status < 600 {
		return fmt.Sprintf("%dxx", status/100)
	}
	return "other"
}

// instrument wraps a handler with the HTTP middleware: request count by
// endpoint and status class, latency, and body bytes. Every registered
// route goes through it, so 4xx/5xx rejections (405s, 413 oversized bodies,
// 415 content types, 404 unknown sessions) are counted exactly like
// successes.
func (s *server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		endpoint := routeLabel(r)
		body := &countingBody{rc: r.Body}
		r.Body = body
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.status == 0 {
			// A handler that never writes is still a 200 per net/http.
			sw.status = http.StatusOK
		}
		m := &s.metrics.http
		m.requests.Inc(endpoint, statusClass(sw.status))
		m.latency.Observe(time.Since(start).Seconds(), endpoint)
		if body.n > 0 {
			m.bodyBytes.Add(uint64(body.n), endpoint)
		}
	}
}

// handleMetrics serves GET /metrics: the registry rendered as Prometheus
// text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}
