package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/fleettest"
	"repro/internal/serve"
)

// newFleetServer builds a server from c, with two workers and the default
// L1 capacity, and its test listener. The caller owns srv.Close when c opens
// a journal.
func newFleetServer(t *testing.T, c serverConfig) (*server, *httptest.Server) {
	t.Helper()
	c.Config.Workers = 2
	c.CacheEntries = cache.DefaultEntries
	srv, err := newServer(c)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

// doReq issues one request with explicit method, headers, and body.
func doReq(t *testing.T, method, target, contentType, body string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// metricsBody scrapes /metrics as text.
func metricsBody(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPeerCacheE2E: a request replica B already answered is served by
// replica A from B's cache — byte-identical, labeled hit-peer — and promoted
// into A's own tiers so the next identical request is a local hit.
func TestPeerCacheE2E(t *testing.T) {
	_, tsB := newFleetServer(t, serverConfig{})
	reconBody := `{"111100": 40, "101100": 7, "011100": 5}`
	codeB, bodyB, hdrB := postHeaders(t, tsB.URL+"/v1/reconstruct", reconBody)
	if codeB != http.StatusOK || hdrB.Get(cacheHeader) != cacheMiss {
		t.Fatalf("B miss: %d %q", codeB, hdrB.Get(cacheHeader))
	}

	srvA, tsA := newFleetServer(t, serverConfig{Peers: tsB.URL})
	codeA, bodyA, hdrA := postHeaders(t, tsA.URL+"/v1/reconstruct", reconBody)
	if codeA != http.StatusOK || hdrA.Get(cacheHeader) != cacheHitPeer {
		t.Fatalf("A peer hit: %d %q (%s)", codeA, hdrA.Get(cacheHeader), bodyA)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("peer hit not byte-identical:\nA: %s\nB: %s", bodyA, bodyB)
	}
	if hdrA.Get(engineHeader) != hdrB.Get(engineHeader) {
		t.Errorf("engine header %q != %q", hdrA.Get(engineHeader), hdrB.Get(engineHeader))
	}
	// Promoted: the second identical request never leaves A.
	if _, body2, hdr2 := postHeaders(t, tsA.URL+"/v1/reconstruct", reconBody); hdr2.Get(cacheHeader) != cacheHit {
		t.Errorf("promotion: %q", hdr2.Get(cacheHeader))
	} else if !bytes.Equal(body2, bodyB) {
		t.Error("promoted hit not byte-identical")
	}
	if srvA.cache.Peers.Hits() != 1 {
		t.Errorf("peer hits = %d", srvA.cache.Peers.Hits())
	}
	out := metricsBody(t, tsA.URL)
	if !strings.Contains(out, "hammer_cache_peer_hits_total 1") {
		t.Error("hammer_cache_peer_hits_total != 1")
	}
	if !strings.Contains(out, "hammer_cache_peers 1") {
		t.Error("hammer_cache_peers != 1")
	}
}

// TestPeerCacheWithoutLocalTier: -peers alone, with -cache-entries 0 and no
// -cache-dir, still probes the peer and serves its entry verbatim. With no
// local tier to promote into, the next identical request asks the peer again.
func TestPeerCacheWithoutLocalTier(t *testing.T) {
	peer := fleettest.New(fleettest.Config{})
	t.Cleanup(peer.Close)
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, Peers: peer.URL()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	reconBody := `{"111100": 40, "101100": 7, "011100": 5}`
	rr, err := decodeReconstruct([]byte(reconBody))
	if err != nil {
		t.Fatal(err)
	}
	peerBody := []byte("{\n \"served\": \"by the peer\"\n}\n")
	peer.SetEntry(cache.KeyEntries(rr.entries, rr.width, srv.sch.Options()), cache.EncodeEntry("exact", peerBody))
	for i := 1; i <= 2; i++ {
		code, body, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", reconBody)
		if code != http.StatusOK || hdr.Get(cacheHeader) != cacheHitPeer || hdr.Get(engineHeader) != "exact" {
			t.Fatalf("request %d: %d %s %q %s %q", i, code, cacheHeader, hdr.Get(cacheHeader), engineHeader, hdr.Get(engineHeader))
		}
		if !bytes.Equal(body, peerBody) {
			t.Fatalf("request %d: body %q, want the peer's %q", i, body, peerBody)
		}
		if peer.CacheGets() != i {
			t.Fatalf("request %d: peer probed %d times", i, peer.CacheGets())
		}
	}
}

// TestPeerCacheDegrade: dead and flaky peers cost errors, never failures —
// every request is still served locally with the correct result.
func TestPeerCacheDegrade(t *testing.T) {
	dead := fleettest.New(fleettest.Config{})
	deadURL := dead.URL()
	dead.Close()
	flaky := fleettest.New(fleettest.Config{ErrorRate: 1, Seed: 1})
	defer flaky.Close()

	srv, ts := newFleetServer(t, serverConfig{Peers: deadURL + "," + flaky.URL(), PeerTimeout: 200 * time.Millisecond})
	reconBody := `{"1100": 3, "0011": 9}`
	code, body, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", reconBody)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("degrade: %d %q (%s)", code, hdr.Get(cacheHeader), body)
	}
	if srv.cache.Peers.Errors() == 0 {
		t.Error("no peer errors counted")
	}
	// healthz reports the fleet shape.
	var h struct {
		Peers int `json:"peers"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Peers != 2 {
		t.Errorf("healthz peers = %d", h.Peers)
	}
}

// TestCacheGetEndpoint: the probe endpoint serves local entries raw, rejects
// malformed keys, and 404s clean misses.
func TestCacheGetEndpoint(t *testing.T) {
	srv, ts := newFleetServer(t, serverConfig{})
	reconBody := `{"111100": 40, "101100": 7}`
	_, body, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", reconBody)

	var counts map[string]float64
	if err := json.Unmarshal([]byte(reconBody), &counts); err != nil {
		t.Fatal(err)
	}
	key := cache.Key(counts, srv.sch.Options())
	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("cache get: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	engine, entryBody, ok := cache.DecodeEntry(buf.Bytes())
	if !ok || !bytes.Equal(entryBody, body) || engine != hdr.Get(engineHeader) {
		t.Fatalf("entry decode: ok=%v engine=%q", ok, engine)
	}
	// A valid unknown key is a clean 404; a malformed key is a 400.
	if code, _ := getStatus(t, ts.URL+"/v1/cache/"+strings.Repeat("a", 64)); code != http.StatusNotFound {
		t.Errorf("unknown key = %d", code)
	}
	for _, bad := range []string{"short", strings.Repeat("A", 64), strings.Repeat("a", 65)} {
		if code, _ := getStatus(t, ts.URL+"/v1/cache/"+bad); code != http.StatusBadRequest {
			t.Errorf("malformed key %q = %d", bad, code)
		}
	}
}

func getStatus(t *testing.T, target string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestHandoffE2E is the drain lifecycle across two replicas: a session
// ingesting on A is handed off mid-stream to journaled B, finishes ingesting
// there, and its final snapshot matches an uninterrupted control session to
// 1e-12; A answers 404 for it afterward; and the owner rides along, so B
// enforces the per-client session quota against the adopted session.
func TestHandoffE2E(t *testing.T) {
	batch1 := `{"shots": ["110011", "110011", "000111"]}`
	batch2 := `{"counts": {"110011": 2, "101010": 4}}`

	// Control: one uninterrupted session sees both batches.
	_, tsC := newFleetServer(t, serverConfig{})
	createStream(t, tsC.URL, `{"id": "mig", "width": 6}`)
	for _, b := range []string{batch1, batch2} {
		if code, resp := postJSON(t, tsC.URL+"/v1/stream/mig/shots", b); code != http.StatusOK {
			t.Fatalf("control ingest: %d %s", code, resp)
		}
	}
	var control streamSnapshotResponse
	if code, resp := postJSON(t, tsC.URL+"/v1/stream/mig/shots?snapshot=1", `{"counts": {"111111": 1}}`); code != http.StatusOK {
		t.Fatalf("control snapshot: %d %s", code, resp)
	} else {
		var ir streamIngestResponse
		if err := json.Unmarshal(resp, &ir); err != nil || ir.Snapshot == nil {
			t.Fatalf("control snapshot decode: %v %s", err, resp)
		}
		control = *ir.Snapshot
	}

	// A holds the live session; B adopts it (journaled, so adoption also
	// exercises the Import path).
	srvA, tsA := newFleetServer(t, serverConfig{})
	srvB, tsB := newFleetServer(t, serverConfig{Sessions: serve.Config{MaxClientSessions: 1}, DataDir: t.TempDir(), WALSync: "never"})
	defer srvB.Close()
	code, resp, _ := doReq(t, http.MethodPost, tsA.URL+"/v1/stream", "application/json",
		`{"id": "mig", "width": 6}`, map[string]string{clientHeader: "alice"})
	if code != http.StatusCreated {
		t.Fatalf("create on A: %d %s", code, resp)
	}
	if code, resp := postJSON(t, tsA.URL+"/v1/stream/mig/shots", batch1); code != http.StatusOK {
		t.Fatalf("ingest on A: %d %s", code, resp)
	}

	// Drain A into B mid-stream.
	n, err := srvA.drainSessions(context.Background(), tsB.URL)
	if err != nil || n != 1 {
		t.Fatalf("drain: n=%d err=%v", n, err)
	}
	if code, resp := postJSON(t, tsA.URL+"/v1/stream/mig/shots", batch2); code != http.StatusNotFound {
		t.Fatalf("A after handoff: %d %s", code, resp)
	}
	if srvA.mgr.Len() != 0 {
		t.Fatalf("A still holds %d sessions", srvA.mgr.Len())
	}

	// The session finishes on B; the snapshot matches the uninterrupted one.
	if code, resp := postJSON(t, tsB.URL+"/v1/stream/mig/shots", batch2); code != http.StatusOK {
		t.Fatalf("ingest on B: %d %s", code, resp)
	}
	var migrated streamSnapshotResponse
	if code, resp := postJSON(t, tsB.URL+"/v1/stream/mig/shots?snapshot=1", `{"counts": {"111111": 1}}`); code != http.StatusOK {
		t.Fatalf("B snapshot: %d %s", code, resp)
	} else {
		var ir streamIngestResponse
		if err := json.Unmarshal(resp, &ir); err != nil || ir.Snapshot == nil {
			t.Fatalf("B snapshot decode: %v %s", err, resp)
		}
		migrated = *ir.Snapshot
	}
	if migrated.Shots != control.Shots || migrated.Support != control.Support {
		t.Fatalf("migrated shots/support %d/%d != control %d/%d",
			migrated.Shots, migrated.Support, control.Shots, control.Support)
	}
	if len(migrated.Dist) != len(control.Dist) {
		t.Fatalf("dist support %d != %d", len(migrated.Dist), len(control.Dist))
	}
	for k, cv := range control.Dist {
		if mv, ok := migrated.Dist[k]; !ok || math.Abs(mv-cv) > 1e-12 {
			t.Errorf("dist[%s] = %v, want %v (±1e-12)", k, migrated.Dist[k], cv)
		}
	}

	// The owner survived the handoff: alice is at her quota on B now.
	code, resp, hdr := doReq(t, http.MethodPost, tsB.URL+"/v1/stream", "application/json",
		`{"width": 6}`, map[string]string{clientHeader: "alice"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice over quota on B: %d %s", code, resp)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q", hdr.Get("Retry-After"))
	}
	// bob is unaffected.
	if code, resp, _ := doReq(t, http.MethodPost, tsB.URL+"/v1/stream", "application/json",
		`{"width": 6}`, map[string]string{clientHeader: "bob"}); code != http.StatusCreated {
		t.Fatalf("bob on B: %d %s", code, resp)
	}
	out := metricsBody(t, tsB.URL)
	for _, want := range []string{
		"hammer_sessions_adopted_total 1",
		"hammer_wal_imported_total 1",
		`hammer_quota_rejected_total{reason="sessions"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("B metrics missing %q", want)
		}
	}
	if !strings.Contains(metricsBody(t, tsA.URL), "hammer_sessions_handed_off_total 1") {
		t.Error("A metrics missing handed_off 1")
	}
}

// TestHandoffEndpointRejectsCorrupt: the adoption endpoint takes a valid
// shipped log whole or not at all.
func TestHandoffEndpointRejectsCorrupt(t *testing.T) {
	// Produce a valid shipped payload by draining a real session.
	srvA, tsA := newFleetServer(t, serverConfig{})
	createStream(t, tsA.URL, `{"id": "x", "width": 4}`)
	if code, resp := postJSON(t, tsA.URL+"/v1/stream/x/shots", `{"shots": ["1100", "0011"]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, resp)
	}
	var raw []byte
	if err := srvA.mgr.Handoff("x", func(b []byte) error { raw = append([]byte(nil), b...); return nil }); err != nil {
		t.Fatal(err)
	}

	_, tsB := newFleetServer(t, serverConfig{})
	post := func(id string, body []byte, ct string) (int, []byte) {
		t.Helper()
		code, resp, _ := doReq(t, http.MethodPost, tsB.URL+"/v1/stream/"+id+"/handoff", ct, string(body), nil)
		return code, resp
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xFF
	for name, bad := range map[string][]byte{
		"truncated": raw[:len(raw)-2],
		"flipped":   flipped,
		"tail":      append(append([]byte(nil), raw...), 0xAA),
		"empty":     nil,
	} {
		if code, resp := post("x", bad, "application/octet-stream"); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s", name, code, resp)
		}
		// Never half-imported.
		if code, _ := getStatus(t, tsB.URL+"/v1/stream/x"); code != http.StatusNotFound {
			t.Errorf("%s: session materialized (%d)", name, code)
		}
	}
	if code, resp := post("x", raw, "application/json"); code != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type: %d %s", code, resp)
	}
	// The pristine bytes adopt; a duplicate collides.
	if code, resp := post("x", raw, "application/octet-stream"); code != http.StatusOK {
		t.Fatalf("valid adopt: %d %s", code, resp)
	}
	if code, _ := post("x", raw, "application/octet-stream"); code != http.StatusConflict {
		t.Errorf("duplicate adopt: %d", code)
	}
	if code, _ := getStatus(t, tsB.URL+"/v1/stream/x"); code != http.StatusOK {
		t.Errorf("adopted session snapshot: %d", code)
	}
}

// TestQuotaRateHandler pins the 429 surface: envelope, Retry-After format,
// per-client isolation, unthrottled health/metrics, and the exact rejection
// counter.
func TestQuotaRateHandler(t *testing.T) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 2}, CacheEntries: cache.DefaultEntries})
	if err != nil {
		t.Fatal(err)
	}
	clk := &durableClock{t: time.Unix(9000, 0)}
	srv.limiter = serve.NewLimiter(serve.LimiterConfig{RPS: 1, Burst: 2, Now: clk.now})
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	reconBody := `{"1100": 3, "0011": 9}`
	alice := map[string]string{clientHeader: "alice"}
	for i := 0; i < 2; i++ {
		if code, resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/reconstruct", "application/json", reconBody, alice); code != http.StatusOK {
			t.Fatalf("burst %d: %d %s", i, code, resp)
		}
	}
	code, resp, hdr := doReq(t, http.MethodPost, ts.URL+"/v1/reconstruct", "application/json", reconBody, alice)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over rate: %d %s", code, resp)
	}
	// Retry-After is whole delta-seconds: 1 rps with an empty bucket is
	// exactly 1.
	if hdr.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q", hdr.Get("Retry-After"))
	}
	var env errorResponse
	if err := json.Unmarshal(resp, &env); err != nil || env.Error == "" || env.Index != -1 {
		t.Errorf("429 envelope: %v %s", err, resp)
	}
	// Another client is not throttled by alice's spending; health and
	// metrics are never throttled.
	if code, resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/reconstruct", "application/json", reconBody,
		map[string]string{clientHeader: "bob"}); code != http.StatusOK {
		t.Fatalf("bob throttled: %d %s", code, resp)
	}
	for i := 0; i < 5; i++ {
		if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz throttled: %d", code)
		}
	}
	out := metricsBody(t, ts.URL)
	if !strings.Contains(out, `hammer_quota_rejected_total{reason="rate"} 1`) {
		t.Errorf("rate rejection counter missing:\n%s", out)
	}
	// The bucket refills on the fake clock.
	clk.advance(time.Second)
	if code, resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/reconstruct", "application/json", reconBody, alice); code != http.StatusOK {
		t.Fatalf("post-refill: %d %s", code, resp)
	}
}

// TestQuotaSessionsHandler pins the per-client session cap over HTTP: 429
// past the cap, freed by delete, isolated per client, overridable by the
// body's client field.
func TestQuotaSessionsHandler(t *testing.T) {
	_, ts := newFleetServer(t, serverConfig{Sessions: serve.Config{MaxClientSessions: 2}})
	alice := map[string]string{clientHeader: "alice"}
	for _, id := range []string{"a1", "a2"} {
		if code, resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/stream", "application/json",
			`{"id": "`+id+`", "width": 4}`, alice); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, resp)
		}
	}
	code, resp, hdr := doReq(t, http.MethodPost, ts.URL+"/v1/stream", "application/json", `{"width": 4}`, alice)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") != "1" {
		t.Fatalf("over session quota: %d %q %s", code, hdr.Get("Retry-After"), resp)
	}
	// The body's client field overrides the header.
	if code, resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/stream", "application/json",
		`{"width": 4, "client": "carol"}`, alice); code != http.StatusCreated {
		t.Fatalf("carol via body: %d %s", code, resp)
	}
	// Deleting frees a slot.
	if code, resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/stream/a1", "", "", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, resp)
	}
	if code, resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/stream", "application/json", `{"width": 4}`, alice); code != http.StatusCreated {
		t.Fatalf("post-delete create: %d %s", code, resp)
	}
	if !strings.Contains(metricsBody(t, ts.URL), `hammer_quota_rejected_total{reason="sessions"} 1`) {
		t.Error("sessions rejection counter != 1")
	}
}

// TestQuotaConcurrent429 hammers a frozen-clock limiter from many goroutines:
// exactly the burst is admitted, the rest get well-formed 429s, race-clean.
func TestQuotaConcurrent429(t *testing.T) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 2}, CacheEntries: cache.DefaultEntries})
	if err != nil {
		t.Fatal(err)
	}
	clk := &durableClock{t: time.Unix(9000, 0)}
	srv.limiter = serve.NewLimiter(serve.LimiterConfig{RPS: 1, Burst: 5, Now: clk.now})
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	const total = 30
	var wg sync.WaitGroup
	codes := make([]int, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/reconstruct",
				strings.NewReader(`{"1100": 3, "0011": 9}`))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(clientHeader, "storm")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	ok, throttled := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			throttled++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok != 5 || throttled != 25 {
		t.Errorf("ok %d throttled %d, want 5/25", ok, throttled)
	}
	if !strings.Contains(metricsBody(t, ts.URL), `hammer_quota_rejected_total{reason="rate"} 25`) {
		t.Error("rate rejection counter != 25")
	}
}

// FuzzPeerCacheKey throws arbitrary keys at the probe endpoint: a valid key
// answers 200/404, anything else 400 (or 404 when routing rejects the path),
// and nothing ever 500s or panics.
func FuzzPeerCacheKey(f *testing.F) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, CacheEntries: cache.DefaultEntries})
	if err != nil {
		f.Fatal(err)
	}
	mux := srv.mux()
	f.Add(strings.Repeat("a", 64))
	f.Add("deadbeef")
	f.Add("../../../etc/passwd")
	f.Add(strings.Repeat("A", 64))
	f.Add("")
	f.Add("00%2f11")
	f.Fuzz(func(t *testing.T, key string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/cache/"+url.PathEscape(key), nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("key %q: status %d", key, rec.Code)
		}
		if cache.ValidKey(key) {
			if rec.Code != http.StatusNotFound && rec.Code != http.StatusOK {
				t.Fatalf("valid key %q: status %d", key, rec.Code)
			}
		} else if rec.Code == http.StatusOK {
			t.Fatalf("invalid key %q served an entry", key)
		}
	})
}
