package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
)

// maxRequestBytes bounds one HTTP request body. A histogram entry is ~30
// bytes on the wire; 32 MiB admits batches of roughly a million outcomes
// while keeping a malicious body from exhausting memory.
const maxRequestBytes = 32 << 20

// maxPresizeBytes caps the buffer a request body is read into up front from
// its Content-Length: a larger declared body grows as it arrives, so a
// client cannot make the server reserve memory it never sends.
const maxPresizeBytes = 1 << 20

// runServe starts the HTTP reconstruction service: a shared bounded-worker
// scheduler with pooled per-request sessions, plus a manager of live
// streaming sessions, behind a small JSON API (documented in docs/api.md):
//
//	POST   /v1/reconstruct        one histogram -> {"dist": ...}
//	POST   /v1/batch              {"requests": [...]} -> {"results": [...]}
//	POST   /v1/stream             create a streaming session
//	POST   /v1/stream/{id}/shots  ingest shots (optional ?snapshot=1)
//	GET    /v1/stream/{id}        snapshot of everything ingested so far
//	DELETE /v1/stream/{id}        delete the session
//	POST   /v1/stream/{id}/handoff adopt a session a draining peer ships
//	GET    /v1/cache/{key}        local cache entry, raw (peer L3 probes)
//	GET    /healthz               {"ok": true, ...}
//	GET    /metrics               Prometheus text format (docs/operations.md)
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hammerctl serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c serverConfig
	addr := fs.String("addr", ":8787", "listen address")
	fs.IntVar(&c.Sessions.MaxSessions, "max-sessions", serve.DefaultMaxSessions, "cap on live streaming sessions")
	fs.DurationVar(&c.Sessions.TTL, "session-ttl", serve.DefaultTTL, "idle streaming sessions are evicted after this long (0 = never evict)")
	fs.IntVar(&c.CacheEntries, "cache-entries", cache.DefaultEntries, "LRU result-cache capacity for /v1/reconstruct (0 = disable caching)")
	fs.StringVar(&c.Sched, "sched", sched.PolicyFIFO, "worker-slot queue policy: fifo (arrival order) or spjf (shortest predicted job first)")
	calibrate := fs.Bool("calibrate", false, "re-fit the engine cost model on this host before serving (a few seconds of micro-benchmarks)")
	fs.StringVar(&c.Replicas, "replicas", "", "comma-separated stripe replica base URLs (host:port or full URL); enables the shard coordinator on /v1/reconstruct")
	fs.IntVar(&c.ShardMinSupport, "shard-min-support", 0, "shard every reconstruction with at least this many outcomes instead of letting the cost model decide (0 = cost model)")
	fs.StringVar(&c.DataDir, "data", "", "data directory for durable streaming sessions (write-ahead shot logs, replayed on startup); empty = in-memory sessions only")
	fs.StringVar(&c.WALSync, "wal-sync", wal.SyncAlways.String(), "journal durability: always (fsync per ingest) or never (page cache; survives SIGKILL, not power loss)")
	fs.StringVar(&c.CacheDir, "cache-dir", "", "directory for the file-backed second-level result cache (shared across restarts); empty = L1 only")
	fs.StringVar(&c.Peers, "peers", "", "comma-separated peer replica base URLs whose result caches are probed as an L3 tier on local misses")
	fs.DurationVar(&c.PeerTimeout, "peer-timeout", 0, "per-probe budget for peer cache lookups (0 = built-in default)")
	drainTo := fs.String("drain-to", "", "peer base URL to hand live streaming sessions off to on SIGINT/SIGTERM (graceful drain); empty = exit without draining")
	fs.Float64Var(&c.QuotaRPS, "quota-rps", 0, "per-client request rate limit on the client-facing endpoints (0 = no rate limit); rejections are 429 with Retry-After")
	fs.IntVar(&c.QuotaBurst, "quota-burst", 0, "per-client burst allowance on top of -quota-rps (0 = max(1, ceil(rps)))")
	fs.IntVar(&c.Sessions.MaxClientSessions, "quota-sessions", 0, "cap on live streaming sessions per client (0 = no per-client cap; anonymous sessions exempt)")
	cfg := configFlags(fs)
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	c.Config = *cfg

	// The flag's 0 means "never evict" (matching the wire docs' reading of
	// a non-positive TTL); the manager's internal encoding for that is a
	// negative TTL, its own zero value selecting the default.
	if c.Sessions.TTL == 0 {
		c.Sessions.TTL = -1
	}
	srv, err := newServer(c)
	if err != nil {
		return err
	}
	defer srv.Close()
	if *calibrate {
		// Replace the committed-benchmark constants with ones timed on this
		// host, so engine selection, SPJF ordering, and deadline admission
		// predict this machine rather than the CI runner that fitted the
		// defaults.
		model, err := core.Calibrate(context.Background())
		if err != nil {
			return fmt.Errorf("cost-model calibration: %w", err)
		}
		fmt.Fprintf(stdout, "hammerctl: cost model calibrated on this host (%d engines)\n", len(model.Engines))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Janitor: the manager sweeps lazily on access, but an idle server must
	// still release evicted sessions' memory. The done channel ends the
	// goroutine when Serve returns (Ticker.Stop alone does not close C).
	if ttl := srv.mgr.TTL(); ttl > 0 {
		// Clamp the sweep interval: a sub-second TTL must not hand
		// NewTicker a zero (panic) or hot-spinning interval.
		interval := ttl / 2
		if interval < time.Second {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-ticker.C:
					srv.mgr.Sweep()
				case <-done:
					return
				}
			}
		}()
	}
	fmt.Fprintf(stdout, "hammerctl: serving on %s (%d workers, engine %s, %s scan kernel, %s scheduling, %d session slots, %d cache entries)\n",
		ln.Addr(), srv.sch.Workers(), engineLabel(srv.sch.Options().Engine), core.ScanKernel(), srv.sch.Policy(), srv.mgr.MaxSessions(), srv.cache.L1.Capacity())
	if srv.coord != nil {
		fmt.Fprintf(stdout, "hammerctl: shard coordinator enabled (%d replicas)\n", srv.coord.NumReplicas())
	}
	if srv.journal != nil {
		fmt.Fprintf(stdout, "hammerctl: durable sessions in %s (wal-sync %s, %d recovered)\n",
			c.DataDir, srv.journal.Sync(), srv.recovered)
	}
	if srv.cache.L2 != nil {
		fmt.Fprintf(stdout, "hammerctl: second-level result cache in %s (%d entries)\n", c.CacheDir, srv.cache.L2.Len())
	}
	if srv.cache.Peers != nil {
		fmt.Fprintf(stdout, "hammerctl: peer cache tier enabled (%d peers)\n", srv.cache.Peers.NumPeers())
	}
	hs := &http.Server{Handler: srv.mux(), ReadHeaderTimeout: 10 * time.Second}
	if *drainTo == "" {
		return hs.Serve(ln)
	}
	// Graceful drain: on SIGINT/SIGTERM, stop accepting requests, let the
	// in-flight ones finish, then ship every live session to the drain peer.
	// Sessions that fail to ship stay journaled locally for the next start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "hammerctl: shutdown: %v\n", err)
		}
		n, err := srv.drainSessions(shutCtx, *drainTo)
		fmt.Fprintf(stdout, "hammerctl: drained %d sessions to %s\n", n, *drainTo)
		return err
	}
}

func engineLabel(name string) string {
	if name == "" {
		return core.EngineAuto
	}
	return name
}

// server is the HTTP facade over one shared scheduler, the streaming session
// manager, the result cache, and the metrics registry. base is the
// server-level Config the CLI flags set; wire bodies may override it per
// request ("config") or per session.
type server struct {
	sch  *sched.Scheduler
	mgr  *serve.Manager
	base hammer.Config
	// cache is the /v1/reconstruct result-cache chain: L1 (-cache-entries),
	// L2 (-cache-dir) and the peer tier (-peers). Its entries hold the
	// rendered response body with the engine that produced it, so a hit
	// writes stored bytes verbatim — byte-identical to the miss that filled
	// it, with no re-encoding on the hot path — and still reports
	// X-Hammer-Engine.
	cache *cache.Tiered
	// digests maps the SHA-256 of a /v1/reconstruct body to the canonical
	// cache key it decoded to, so a byte-identical repeat finds its key
	// without decoding. It exists exactly when L1 does, at L1's capacity.
	digests *cache.LRU[string]
	metrics *serverMetrics
	// journal, when non-nil (-data), is the wal store behind the session
	// manager; the server closes it when Serve returns. recovered is the
	// session count Recover rebuilt at startup, surfaced in /healthz.
	journal   *wal.Store
	recovered int
	// coord, when non-nil (-replicas), fans large /v1/reconstruct requests
	// out as pair-balanced stripes to replica servers; see shardserve.go.
	coord *shard.Coordinator
	// limiter, when non-nil (-quota-rps), rate-limits the client-facing
	// routes per client (servefleet.go).
	limiter *serve.Limiter
	// stripeSessions pools the Workers:1 sessions /v1/shard/reconstruct and
	// the coordinator's local stripe fallback score on (ScoreStripe ignores
	// session options — the spec fully describes the work).
	stripeSessions sync.Pool
}

// serverConfig is the whole configuration of `hammerctl serve`: each field
// holds one flag's value (Config and Sessions one group of flags each), so
// its zero value is every flag at zero — no cache entries, journal,
// replicas, peers, or quotas.
type serverConfig struct {
	// Config holds -radius, -weights, -no-filter, -topm and -engine, and
	// -workers: the request-level concurrency of the shared scheduler that
	// single requests, batch members, and streaming snapshots draw from,
	// exactly as in hammer.RunBatch (each runs single-threaded in its slot).
	Config          hammer.Config
	Sched           string        // -sched: "" or "fifo" (arrival order), "spjf" (shortest predicted job first)
	Sessions        serve.Config  // -max-sessions, -quota-sessions, -session-ttl, and the clock; Journal comes from DataDir
	CacheEntries    int           // -cache-entries: L1 capacity (0 = no L1)
	DataDir         string        // -data: the session journal's root ("" = in-memory sessions)
	WALSync         string        // -wal-sync: "always" (also "") or "never"
	CacheDir        string        // -cache-dir: the L2 store's root ("" = no L2)
	Replicas        string        // -replicas: comma-separated; any value but "" enables the shard coordinator
	ShardMinSupport int           // -shard-min-support (0 = the cost model decides)
	Peers           string        // -peers: comma-separated L3 peers
	PeerTimeout     time.Duration // -peer-timeout (0 = cache.DefaultProbeTimeout)
	QuotaRPS        float64       // -quota-rps (0 = no rate limit)
	QuotaBurst      int           // -quota-burst (0 = max(1, ceil(rps)))
}

// newServer builds the scheduler, session manager, result-cache chain,
// metrics, and the optional journal, shard coordinator, and rate limiter the
// handlers share. The option mapping is the facade's own
// (hammer.SessionOptions), so serve honors every Config knob the library
// does. With a data directory it also replays the journal, so the returned
// server already holds every session a previous process journaled (minus
// deleted/evicted ones, whose logs were pruned).
// The caller owns srv.Close; on error, newServer has closed the journal
// itself.
func newServer(c serverConfig) (_ *server, err error) {
	opts, err := hammer.SessionOptions(c.Config)
	if err != nil {
		return nil, err
	}
	sch, err := sched.New(sched.Config{Workers: c.Config.Workers, Opts: opts, Policy: c.Sched})
	if err != nil {
		return nil, err
	}
	var journal *wal.Store
	sc := c.Sessions
	if c.DataDir != "" {
		policy, err := wal.ParseSyncPolicy(c.WALSync)
		if err != nil {
			return nil, err
		}
		if journal, err = wal.Open(c.DataDir, wal.Options{Sync: policy}); err != nil {
			return nil, err
		}
		sc.Journal = journal
	}
	// From here on, a failure also closes the journal's open logs.
	defer func() {
		if err != nil && journal != nil {
			journal.Close()
		}
	}()
	l2, err := cache.NewDir(c.CacheDir)
	if err != nil {
		return nil, err
	}
	peers, err := shard.NormalizePeers(splitReplicas(c.Peers))
	if err != nil {
		return nil, err
	}
	tiers := &cache.Tiered{
		L1:    cache.New[[]byte](c.CacheEntries),
		L2:    l2,
		Peers: cache.NewPeers(cache.PeersConfig{Peers: peers, Timeout: c.PeerTimeout}),
	}
	mgr := serve.NewManager(sc)
	m := newServerMetrics(mgr.Len, tiers)
	sch.Instrument(m.sched)
	mgr.Instrument(m.serve)
	srv := &server{sch: sch, mgr: mgr, base: c.Config, cache: tiers, digests: cache.New[string](c.CacheEntries), metrics: m, journal: journal}
	srv.stripeSessions.New = func() any {
		sess, err := core.NewSession(core.Options{Workers: 1})
		if err != nil {
			// Unreachable: constant, valid options.
			panic(err)
		}
		return sess
	}
	if journal != nil {
		// Instrumented above, so recovery shows up in hammer_wal_*.
		journal.Instrument(m.wal)
		if srv.recovered, err = mgr.Recover(); err != nil {
			return nil, err
		}
	}
	if c.Replicas != "" {
		// Requests the cost model prices cheaper sharded (or, with
		// ShardMinSupport > 0, all requests at least that large) fan out to
		// the replicas; stripes whose replica fails are recomputed locally
		// on the pooled stripe sessions.
		srv.coord, err = shard.New(shard.Config{
			Replicas:   splitReplicas(c.Replicas),
			Local:      srv.localStripe,
			Metrics:    m.shard,
			MinSupport: c.ShardMinSupport,
		})
		if err != nil {
			return nil, err
		}
	}
	srv.limiter = serve.NewLimiter(serve.LimiterConfig{RPS: c.QuotaRPS, Burst: c.QuotaBurst})
	return srv, nil
}

// Close releases the server's durable resources (the journal's open logs).
// In-flight requests must have drained first.
func (s *server) Close() error {
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// mux registers the routes. Patterns use net/http's 1.22+ wildcard syntax,
// and the middleware reads the matched pattern back (http.Request.Pattern)
// as the metrics endpoint label — one route table serves both dispatch and
// labeling, so a route cannot be added without being labeled. The "/"
// catch-all keeps unknown paths inside the middleware too: 404s get the
// error envelope and are counted.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	// The quota middleware wraps only the client-facing routes: health,
	// metrics, and the intra-fleet endpoints (shard stripes, peer cache
	// probes, handoff adoption) must keep working while clients are being
	// throttled, or a throttled fleet could not rebalance or be scraped.
	mux.HandleFunc("/healthz", s.instrument(s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument(s.handleMetrics))
	mux.HandleFunc("/v1/reconstruct", s.instrument(s.quota(s.handleReconstruct)))
	mux.HandleFunc("/v1/shard/reconstruct", s.instrument(s.handleShardReconstruct))
	mux.HandleFunc("/v1/batch", s.instrument(s.quota(s.handleBatch)))
	mux.HandleFunc("/v1/stream", s.instrument(s.quota(s.handleStreamCreate)))
	mux.HandleFunc("/v1/stream/{id}", s.instrument(s.quota(s.handleStreamByID)))
	mux.HandleFunc("/v1/stream/{id}/shots", s.instrument(s.quota(s.handleStreamShots)))
	mux.HandleFunc("/v1/stream/{id}/handoff", s.instrument(s.handleStreamHandoff))
	mux.HandleFunc("/v1/cache/{key}", s.instrument(s.handleCacheGet))
	mux.HandleFunc("/", s.instrument(s.handleNotFound))
	return mux
}

// handleNotFound is the enveloped 404 for paths matching no route.
func (s *server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, -1, fmt.Errorf("no such endpoint %s", r.URL.Path))
}

// wireConfig is the per-request/per-session "config" override object:
// pointer fields distinguish "absent — inherit the server default" from an
// explicit zero. Workers is deliberately missing — parallelism is the
// server's budget, not a client knob.
type wireConfig struct {
	Radius        *int    `json:"radius"`
	Weights       *string `json:"weights"`
	DisableFilter *bool   `json:"disable_filter"`
	TopM          *int    `json:"topm"`
	Engine        *string `json:"engine"`
}

// apply overlays the override onto the server's base configuration.
func (wc *wireConfig) apply(base hammer.Config) hammer.Config {
	if wc == nil {
		return base
	}
	if wc.Radius != nil {
		base.Radius = *wc.Radius
	}
	if wc.Weights != nil {
		base.Weights = *wc.Weights
	}
	if wc.DisableFilter != nil {
		base.DisableFilter = *wc.DisableFilter
	}
	if wc.TopM != nil {
		base.TopM = *wc.TopM
	}
	if wc.Engine != nil {
		base.Engine = *wc.Engine
	}
	return base
}

// requestOptions maps an optional wire override onto scheduler request
// options: nil stays nil (scheduler defaults, no reconfiguration), an
// override becomes the full facade mapping of base-with-override.
func (s *server) requestOptions(wc *wireConfig) (*core.Options, error) {
	if wc == nil {
		return nil, nil
	}
	opts, err := hammer.SessionOptions(wc.apply(s.base))
	if err != nil {
		return nil, err
	}
	return &opts, nil
}

type errorResponse struct {
	Error string `json:"error"`
	// Index is the failing request's position in a batch; -1 outside
	// batches.
	Index int `json:"index"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	replicas := 0
	if s.coord != nil {
		replicas = s.coord.NumReplicas()
	}
	health := map[string]any{
		"ok":           true,
		"workers":      s.sch.Workers(),
		"engine":       engineLabel(s.sch.Options().Engine),
		"scan_kernel":  core.ScanKernel(),
		"policy":       s.sch.Policy(),
		"sessions":     s.mgr.Len(),
		"max_sessions": s.mgr.MaxSessions(),
		"replicas":     replicas,
		// Durability: whether sessions survive a restart, how many the
		// running process replayed at startup, and whether a second-level
		// result cache is attached.
		"durable":            s.journal != nil,
		"recovered_sessions": s.recovered,
		"cache_l2":           s.cache.L2 != nil,
		// Fleet: how many peer replicas back the L3 cache tier, and whether
		// per-client quotas are active.
		"peers":               s.cache.Peers.NumPeers(),
		"quota_rps":           s.limiter != nil,
		"max_client_sessions": s.mgr.MaxClientSessions(),
	}
	if s.journal != nil {
		health["wal_sync"] = s.journal.Sync().String()
	}
	writeJSON(w, http.StatusOK, health)
}

func (s *server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	body, ok := readJSONBody(w, r)
	if !ok {
		return
	}
	// A byte-identical repeat of a body this server has answered finds its
	// cache key from one SHA-256 of the bytes, without decoding them.
	var (
		digest, key string
		known       bool
	)
	if s.digests != nil {
		sum := sha256.Sum256(body)
		digest = string(sum[:])
		key, known = s.digests.Get(digest)
	}
	var (
		rr   *reconstructRequest
		opts *core.Options
		eff  core.Options
	)
	decode := func() (err error) {
		if rr, err = decodeReconstruct(body); err != nil {
			return err
		}
		if opts, err = s.requestOptions(rr.override); err != nil {
			return err
		}
		eff = s.sch.Options()
		if opts != nil {
			eff = *opts
		}
		return nil
	}
	// Any other body is validated here, so an invalid one never reaches a
	// cache tier: no miss is counted and no disk or peer is consulted.
	if !known {
		if err := decode(); err != nil {
			writeError(w, http.StatusBadRequest, -1, err)
			return
		}
	}
	// Result cache: repeated identical (histogram, options) requests — the
	// QAOA-optimizer pattern — skip reconstruction entirely. The key is a
	// canonical hash over the validated effective options (a deadline never
	// changes the result, so it is not part of the key), so the bare and
	// {"counts": ...} spellings of one request share an entry. On a miss the
	// response is rendered once: the same bytes are stored (immutable from
	// here on) and written, so a later hit is byte-identical to this miss. A
	// known digest whose entry every tier has since dropped decodes in fill.
	var status int
	var out rendered
	engine, resp, tier, err := s.cache.Fetch(
		func() string {
			if !known {
				key = cache.KeyEntries(rr.entries, rr.width, eff)
			}
			return key
		},
		func() (string, []byte, error) {
			if rr == nil {
				if err := decode(); err != nil {
					status = http.StatusBadRequest
					return "", nil, err
				}
			}
			var err error
			if out, status, err = s.reconstruct(r, rr, opts, eff); err != nil {
				return "", nil, err
			}
			return out.engine, out.body, out.err
		})
	switch {
	case err == nil:
	case status != 0:
		writeError(w, status, -1, err)
		return
	case tier == cache.Uncached:
		w.Header().Set(engineHeader, out.engine)
		writeEncodeFailure(w)
		return
	default:
		w.Header().Set(engineHeader, out.engine)
		writeError(w, http.StatusInternalServerError, -1, err)
		return
	}
	if !known {
		s.digests.Put(digest, key)
	}
	w.Header().Set(engineHeader, engine)
	if label := cacheLabels[tier]; label != "" {
		w.Header().Set(cacheHeader, label)
	}
	writeJSONBytes(w, http.StatusOK, resp)
}

// reconstruct runs one request the result cache could not answer: sharded
// when the coordinator prices that cheaper, else on the local scheduler. A
// failure comes with its HTTP status; a rendering failure is the returned
// body's err instead.
func (s *server) reconstruct(r *http.Request, rr *reconstructRequest, opts *core.Options, eff core.Options) (rendered, int, error) {
	deadline := rr.schedDeadline(time.Now())
	in, err := dist.FromEntries(rr.width, rr.entries)
	if err != nil {
		return rendered{}, http.StatusBadRequest, err
	}
	if s.coord != nil && s.coord.ShouldShard(eff, in.Len(), in.NumBits()) {
		out, err := s.reconstructSharded(r.Context(), eff, in, deadline)
		switch {
		case err == nil:
			return out, 0, nil
		case statusFor(r, err) != http.StatusBadRequest:
			// Deadline admission rejections (504/429), a deadline that
			// ran out mid-scan (504) and client cancellation (499) end the
			// request; any other coordinator failure degrades to the
			// single-node path below.
			return rendered{}, statusFor(r, err), err
		}
	}
	var out rendered
	err = s.sch.Reconstruct(r.Context(), sched.Request{In: in, Opts: opts, Deadline: deadline}, func(res *core.Result) error {
		out = renderReconstruct(res)
		return nil
	})
	if err != nil {
		return rendered{}, statusFor(r, err), err
	}
	return out, 0, nil
}

// The X-Hammer-Cache response header reports how /v1/reconstruct used the
// result cache; it is absent when no cache tier is configured
// (-cache-entries 0, no -cache-dir, no -peers) and on error responses.
const (
	cacheHeader  = "X-Hammer-Cache"
	cacheHit     = "hit"
	cacheHitL2   = "hit-l2"
	cacheHitPeer = "hit-peer"
	cacheMiss    = "miss"
)

// cacheLabels is the X-Hammer-Cache value for each cache.Tier.
var cacheLabels = [...]string{
	cache.Miss:    cacheMiss,
	cache.HitL1:   cacheHit,
	cache.HitL2:   cacheHitL2,
	cache.HitPeer: cacheHitPeer,
}

// The X-Hammer-Engine response header reports which reconstruction engine
// produced a /v1/reconstruct response — the cost model's pick under the
// default auto selection, or the pinned name. Cache hits report the engine
// that filled the entry.
const engineHeader = "X-Hammer-Engine"

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	body, ok := readJSONBody(w, r)
	if !ok {
		return
	}
	reqs, err := decodeBatch(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, -1, err)
		return
	}
	// Every member's deadline counts from here, so time spent waiting
	// behind the batch's other members counts against it. Each member
	// renders inside its consume callback, while the session that owns the
	// result is still held; the body is assembled in order once all are
	// done. A member that failed to decode fails when the batch reaches it,
	// as any other member error does.
	decoded := time.Now()
	members := make([]rendered, len(reqs))
	err = s.sch.Batch(r.Context(), len(reqs),
		func(i int) (sched.Request, error) {
			rr, err := reqs[i].rr, reqs[i].err
			if err != nil {
				return sched.Request{}, err
			}
			opts, err := s.requestOptions(rr.override)
			if err != nil {
				return sched.Request{}, err
			}
			d, err := dist.FromEntries(rr.width, rr.entries)
			return sched.Request{In: d, Opts: opts, Deadline: rr.schedDeadline(decoded)}, err
		},
		func(i int, res *core.Result) error {
			members[i] = appendResult(nil, 2, res)
			return nil
		})
	if err != nil {
		writeError(w, statusFor(r, err), failedIndex(err), err)
		return
	}
	out, err := renderBatch(members)
	if err != nil {
		writeEncodeFailure(w)
		return
	}
	writeJSONBytes(w, http.StatusOK, out)
}

// mediaType returns the request's canonical media type — lowercased, with
// parameters like charset stripped — or "" when the header is absent or
// unparseable. Handlers that branch on the content type use this one parsed
// value, never the raw header.
func mediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return ""
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return ""
	}
	return mt
}

// checkContentType enforces the declared request media type: an empty
// Content-Type is accepted (curl's default -d type is not: clients must send
// JSON as JSON), "application/json" always is, and anything else — including
// curl's application/x-www-form-urlencoded — is rejected up front with 415
// so a misdeclared body never reaches a JSON parser. extra lists additional
// acceptable media types (the shots endpoint's "text/plain").
func checkContentType(r *http.Request, extra ...string) error {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return nil
	}
	mt := mediaType(r)
	if mt == "" {
		return fmt.Errorf("unparseable Content-Type %q", ct)
	}
	if mt == "application/json" {
		return nil
	}
	for _, ok := range extra {
		if mt == ok {
			return nil
		}
	}
	return fmt.Errorf("unsupported Content-Type %q (want application/json)", ct)
}

// readJSONBody enforces the content type and drains a size-capped request
// body, writing the error response itself when the request is unacceptable
// (the ok=false path).
func readJSONBody(w http.ResponseWriter, r *http.Request, extraTypes ...string) ([]byte, bool) {
	if err := checkContentType(r, extraTypes...); err != nil {
		writeError(w, http.StatusUnsupportedMediaType, -1, err)
		return nil, false
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, bodyStatus(err), -1, err)
		return nil, false
	}
	return body, true
}

// readBody drains the request body, capped at maxRequestBytes. A body that
// declares a Content-Length of at most maxPresizeBytes is read into one
// buffer of that size (with room for the read that sees EOF); any other
// grows as io.ReadAll grows it.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	// MaxBytesReader gets the unwrapped writer: on an oversized body it
	// marks the connection Connection: close through a private type
	// assertion on exactly the writer it is handed, which the metrics
	// middleware's wrapper would otherwise defeat (it only flags the
	// connection — the 413 envelope is still written through w).
	body := http.MaxBytesReader(unwrapWriter(w), r.Body, maxRequestBytes)
	if n := r.ContentLength; n > 0 && n <= maxPresizeBytes {
		buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
		_, err := buf.ReadFrom(body)
		return buf.Bytes(), err
	}
	return io.ReadAll(body)
}

// unwrapWriter follows Unwrap chains down to the ResponseWriter net/http
// itself handed out.
func unwrapWriter(w http.ResponseWriter) http.ResponseWriter {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return w
		}
		w = u.Unwrap()
	}
}

// bodyStatus distinguishes an oversized body (413) from a body that simply
// failed to arrive — client disconnect mid-upload and the like (400).
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// reconstructRequest is one decoded reconstruction request: the validated
// histogram as width-bit entries in ascending outcome order with their raw
// masses (what both the cache key and the Dist are built from), the optional
// per-request config override, and the optional deadline budget
// ({"deadline_ms": N} — 0 means no deadline).
type reconstructRequest struct {
	entries  []dist.Entry
	width    int
	override *wireConfig
	deadline time.Duration
}

// schedDeadline maps the wire budget onto the scheduler's absolute form,
// counted from the moment the request was decoded, so queueing counts
// against the client's budget.
func (rr *reconstructRequest) schedDeadline(decoded time.Time) time.Time {
	if rr.deadline <= 0 {
		return time.Time{}
	}
	return decoded.Add(rr.deadline)
}

// decodeReconstruct decodes and validates one reconstruction request: a bare
// {"0101": mass} histogram object, or a {"counts": {...}} wrapper optionally
// carrying a per-request {"config": {...}} override and a {"deadline_ms": N}
// budget. The body is read in one pass of a dist.Scanner (decodeMember), and
// it accepts exactly what encoding/json accepted when it decoded the body
// into a map[string]float64, or failing that into the wrapper struct.
func decodeReconstruct(body []byte) (*reconstructRequest, error) {
	p := dist.NewScanner(body)
	return decodeMember(&p, true)
}

// decodeMember reads one reconstruction request at the cursor; whole says
// it is the entire document, so only whitespace may follow it. The bare form
// is tried first: a wrapper fails it at its first value, and it is the shape
// cache-hit traffic arrives in. The wrapper is then walked member by member
// as encoding/json walked its struct: names match case-insensitively, a
// repeated "counts" merges into the histogram decoded in place and null
// empties it, and only the "config" object's own bytes reach json.Unmarshal,
// which merges a repeated one into the same override.
func decodeMember(p *dist.Scanner, whole bool) (*reconstructRequest, error) {
	start := *p
	var bare dist.Histogram
	bareErr := p.Histogram(&bare)
	if bareErr == nil && whole {
		bareErr = p.End()
	}
	if bareErr == nil {
		es, n, err := bare.Entries()
		if err != nil {
			return nil, err
		}
		return &reconstructRequest{entries: es, width: n}, nil
	}
	*p = start
	var (
		counts     dist.Histogram
		config     *wireConfig
		deadlineMS int64
	)
	err := p.Object(func(key []byte) error {
		if dist.KeyIs(key, "counts") {
			return p.Histogram(&counts)
		}
		raw, err := p.Skip()
		switch {
		case err != nil:
		case dist.KeyIs(key, "config"):
			err = json.Unmarshal(raw, &config)
		case dist.KeyIs(key, "deadline_ms") && string(raw) != "null":
			deadlineMS, err = strconv.ParseInt(string(raw), 10, 64)
		}
		return err
	})
	if err == nil && whole {
		err = p.End()
	}
	if err != nil || counts.Empty() {
		return nil, fmt.Errorf("request is neither a histogram object nor {\"counts\": ...}: %w", bareErr)
	}
	if deadlineMS < 0 {
		return nil, fmt.Errorf("deadline_ms must be non-negative, got %d", deadlineMS)
	}
	es, n, err := counts.Entries()
	if err != nil {
		return nil, err
	}
	return &reconstructRequest{
		entries:  es,
		width:    n,
		override: config,
		deadline: sched.BudgetMS(deadlineMS),
	}, nil
}

// batchMember is one decoded /v1/batch member, or why it is not a valid
// request.
type batchMember struct {
	rr  *reconstructRequest
	err error
}

// decodeBatch decodes a /v1/batch body, {"requests": [...]}, in one pass:
// the envelope as encoding/json read it into a struct (the last "requests"
// wins, null empties it), and each member in place as decodeReconstruct
// reads a body. A syntax error anywhere, a malformed envelope and an empty
// batch are the returned error. A member that is valid JSON but not a valid
// request keeps its own error, which the batch reports at its index.
func decodeBatch(body []byte) ([]batchMember, error) {
	p := dist.NewScanner(body)
	var members []batchMember
	err := p.Object(func(key []byte) error {
		if !dist.KeyIs(key, "requests") {
			_, err := p.Skip()
			return err
		}
		members = members[:0]
		return p.Array(func() error {
			start := p
			rr, err := decodeMember(&p, false)
			if err != nil {
				// Read the member again for syntax alone: a syntax error
				// fails the whole body, any other error only the member.
				p = start
				if _, serr := p.Skip(); serr != nil {
					return serr
				}
			}
			members = append(members, batchMember{rr, err})
			return nil
		})
	})
	if err == nil {
		err = p.End()
	}
	if err != nil {
		return nil, fmt.Errorf("batch body is not {\"requests\": [...]}: %w", err)
	}
	if len(members) == 0 {
		return nil, errors.New("empty batch")
	}
	return members, nil
}

// decodeHistogram is the CLI's reading of the same shapes (per-request config
// overrides and deadlines are an HTTP concern; the CLI's configuration comes
// from flags), returned in the facade's string-keyed form.
func decodeHistogram(body []byte) (map[string]float64, error) {
	rr, err := decodeReconstruct(body)
	if err != nil {
		return nil, err
	}
	h := make(map[string]float64, len(rr.entries))
	for _, e := range rr.entries {
		h[bitstr.Format(e.X, rr.width)] = e.P
	}
	return h, nil
}

// statusFor maps a reconstruction error to an HTTP status: deadline
// rejections split by kind — 504 when the predicted runtime alone exceeds
// the budget (no amount of retrying helps at this deadline) versus 429 when
// the request was feasible but the queue ate the budget (retry-able once
// load drops) — a budget that ran out during an admitted reconstruction is
// a 504 too while the client is still connected, client cancellation
// propagates as 499 (nginx's client-closed-request — the client is gone
// either way), and everything else is a bad request, since the scheduler's
// configuration was validated at startup and the remaining failures are
// input-shaped.
func statusFor(r *http.Request, err error) int {
	var de *sched.DeadlineError
	if errors.As(err, &de) {
		if de.Infeasible {
			return http.StatusGatewayTimeout
		}
		return http.StatusTooManyRequests
	}
	connected := r.Context().Err() == nil
	switch {
	case connected && errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case !connected && errors.Is(err, context.Canceled):
		return 499
	}
	return http.StatusBadRequest
}

// failedIndex extracts the failing request's index from a scheduler batch
// error; -1 when the error is not request-scoped.
func failedIndex(err error) int {
	var be *sched.BatchError
	if errors.As(err, &be) {
		return be.Index
	}
	return -1
}

// writeJSON renders and writes v through the same encoder as encodeJSON, so
// a stored-then-replayed response (the cache) and a directly written one are
// byte-identical by construction, not by keeping two encoder configurations
// in sync.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		// Unreachable for the envelope types (plain structs and maps);
		// keep the envelope shape if a future type breaks that.
		writeEncodeFailure(w)
		return
	}
	writeJSONBytes(w, status, body)
}

// encodeJSON is the one place a wire response is rendered: indented,
// newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSONBytes writes an already rendered JSON body.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status, index int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Index: index})
}
