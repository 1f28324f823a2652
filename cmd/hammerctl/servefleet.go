package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stream"
)

// The fleet surface (-peers, -drain-to, -quota-*): peer-shared result caching,
// live-session handoff between replicas, and per-client admission quotas.
//
//	GET  /v1/cache/{key}           one local cache entry (L1 then L2), raw
//	POST /v1/stream/{id}/handoff   adopt a session a draining peer ships
//
// Replicas probe each other's /v1/cache/{key} as an L3 tier behind the L1 LRU
// and L2 directory store — the canonical SHA-256 keys are replica-portable, so
// a fleet fronted by an unsticky load balancer converges on one warm cache
// instead of N cold ones. The endpoint is read-only and never probes onward
// (only L1/L2), so a probe cannot amplify into a probe storm. Handoff ships a
// session as its compacted write-ahead log; adoption validates the whole
// payload before any state change, so a torn ship can never half-import.

// clientHeader names the requesting client for quotas. Absent, the client is
// keyed by remote IP.
const clientHeader = "X-Hammer-Client"

// maxClientBytes caps a client id (matching the wal meta limit, so an id
// accepted here always journals).
const maxClientBytes = 128

// clientID resolves the requesting client for quota accounting: the
// X-Hammer-Client header when present (truncated to the journal's id limit),
// else the remote IP — so unlabeled clients are still rate-limited, just at
// per-address granularity.
func clientID(r *http.Request) string {
	if c := r.Header.Get(clientHeader); c != "" {
		if len(c) > maxClientBytes {
			c = c[:maxClientBytes]
		}
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a wait as the Retry-After header's delta-seconds
// form: whole seconds, rounded up, at least 1 (a 429 must never say "retry in
// 0 seconds").
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// quota is the per-client rate-limit middleware, applied to the client-facing
// routes (not health, metrics, or the intra-fleet shard/cache/handoff
// endpoints — a fleet must be able to rebalance while its clients are being
// throttled). A nil limiter admits everything.
func (s *server) quota(h http.HandlerFunc) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if ok, retry := s.limiter.Allow(clientID(r)); !ok {
			s.metrics.quota.Inc("rate")
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			writeError(w, http.StatusTooManyRequests, -1,
				fmt.Errorf("per-client rate limit exceeded, retry after %s s", retryAfterSeconds(retry)))
			return
		}
		h(w, r)
	}
}

// handleCacheGet serves GET /v1/cache/{key}: the raw local cache entry (L1
// first, then L2) in the cache.EncodeEntry frame, for peer replicas' L3
// probes. It is deliberately read-only and local-only — it never probes this
// server's own peers, so a fleet of mutually configured replicas cannot
// amplify one miss into a probe storm.
func (s *server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	key := r.PathValue("key")
	if !cache.ValidKey(key) {
		writeError(w, http.StatusBadRequest, -1, fmt.Errorf("malformed cache key %q (want 64 lowercase hex)", key))
		return
	}
	if raw, ok := s.cache.Local(key); ok {
		writeOctets(w, raw)
		return
	}
	writeError(w, http.StatusNotFound, -1, fmt.Errorf("no cache entry for key %s", key))
}

// writeOctets writes one binary response body.
func writeOctets(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// streamHandoffResponse acknowledges one adopted session.
type streamHandoffResponse struct {
	ID      string `json:"id"`
	Adopted bool   `json:"adopted"`
	Shots   int    `json:"shots"`
	Support int    `json:"support"`
}

// handoffStatus maps adoption errors onto status codes: an invalid payload is
// the shipper's bug (400), an id collision 409, a full manager 429 (the
// draining peer should retry elsewhere or later), a journal failure 500.
func handoffStatus(r *http.Request, err error) int {
	switch {
	case errors.Is(err, serve.ErrBadHandoff):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrExists):
		return http.StatusConflict
	case errors.Is(err, serve.ErrFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrJournal):
		return http.StatusInternalServerError
	default:
		return statusFor(r, err)
	}
}

// handleStreamHandoff serves POST /v1/stream/{id}/handoff: adopt a session a
// draining peer ships as its compacted write-ahead log (raw CRC-framed bytes,
// application/octet-stream). Adoption is all-or-nothing: the payload is
// validated whole before any state change, so a torn or tampered ship leaves
// this replica exactly as it was.
func (s *server) handleStreamHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, -1, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	if mt := mediaType(r); mt != "" && mt != "application/octet-stream" {
		writeError(w, http.StatusUnsupportedMediaType, -1,
			fmt.Errorf("unsupported Content-Type %q (want application/octet-stream)", mt))
		return
	}
	raw, err := readBody(w, r)
	if err != nil {
		writeError(w, bodyStatus(err), -1, err)
		return
	}
	id := r.PathValue("id")
	if _, err := s.mgr.Adopt(id, raw); err != nil {
		writeError(w, handoffStatus(r, err), -1, err)
		return
	}
	resp := streamHandoffResponse{ID: id, Adopted: true}
	// Read the adopted state back under the session lock; a concurrent delete
	// between Adopt and here just reports the bare acknowledgement.
	_ = s.mgr.Do(id, func(st *stream.Stream) error {
		resp.Shots, resp.Support = st.Shots(), st.Support()
		return nil
	})
	writeJSON(w, http.StatusOK, resp)
}

// drainSessions ships every live session to the peer and tombstones the local
// copies, for shutdown under -drain-to. Sessions that fail to ship stay local
// (their journal entries survive for the next restart); the first failure is
// reported after the sweep completes so one bad session does not strand the
// rest.
func (s *server) drainSessions(ctx context.Context, peer string) (int, error) {
	normalized, err := shard.NormalizePeers([]string{peer})
	if err != nil {
		return 0, err
	}
	h := &shard.Handoff{Peer: normalized[0]}
	shipped := 0
	var firstErr error
	for _, id := range s.mgr.IDs() {
		err := s.mgr.Handoff(id, func(raw []byte) error {
			return h.Ship(ctx, id, raw)
		})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("drain session %q: %w", id, err)
			}
			continue
		}
		shipped++
	}
	return shipped, firstErr
}
