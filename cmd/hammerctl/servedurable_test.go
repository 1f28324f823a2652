package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/serve"
	"repro/internal/wal"
)

// durableClock is an adjustable serve.Config.Now for TTL tests across
// "restarts" (both server generations share it).
type durableClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *durableClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *durableClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// postHeaders is postJSON plus the response headers (the cache tier checks).
func postHeaders(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// TestDurableRestartE2E is the restart harness over the full HTTP surface:
// sessions created and fed through one server generation — including a
// TopM/pinned-engine batch-fallback session — must snapshot byte-identically
// from a second generation started on the same -data directory; a session the
// first generation TTL-evicted must stay gone; and a reconstruction the first
// generation cached must come back from the second's cold L1 as an L2 hit
// with a byte-identical body.
func TestDurableRestartE2E(t *testing.T) {
	dataDir := t.TempDir()
	cacheDir := t.TempDir()
	clk := &durableClock{t: time.Unix(5000, 0)}
	c := serverConfig{Sessions: serve.Config{TTL: time.Minute, Now: clk.now},
		DataDir: dataDir, WALSync: "never", CacheDir: cacheDir}

	srv1, ts1 := newFleetServer(t, c)
	if srv1.recovered != 0 {
		t.Fatalf("fresh data dir recovered %d sessions", srv1.recovered)
	}

	// Three sessions: an incremental one, a batch-fallback one (TopM + pinned
	// engine survive via the journal's create record), and a doomed one the
	// TTL will evict before the restart.
	createStream(t, ts1.URL, `{"id": "inc", "width": 6}`)
	cr := createStream(t, ts1.URL, `{"id": "topm", "width": 6, "config": {"topm": 2, "engine": "bucketed"}}`)
	if cr.Incremental {
		t.Fatal("topm session reported incremental; want batch fallback")
	}
	createStream(t, ts1.URL, `{"id": "doomed", "width": 6}`)
	for id, body := range map[string]string{
		"inc":    `{"counts": {"111100": 40, "101100": 7, "011100": 5, "000011": 2}}`,
		"topm":   `{"shots": ["110011", "110011", "110011", "000111", "101010"]}`,
		"doomed": `{"shots": ["111111"]}`,
	} {
		if code, resp := postJSON(t, ts1.URL+"/v1/stream/"+id+"/shots", body); code != http.StatusOK {
			t.Fatalf("ingest %s: status %d: %s", id, code, resp)
		}
	}

	// Warm the result cache: miss fills L1 and L2, repeat hits L1.
	reconBody := `{"111100": 40, "101100": 7, "011100": 5}`
	code, missBody, hdr := postHeaders(t, ts1.URL+"/v1/reconstruct", reconBody)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("warmup status %d, cache %q", code, hdr.Get(cacheHeader))
	}
	if _, _, hdr := postHeaders(t, ts1.URL+"/v1/reconstruct", reconBody); hdr.Get(cacheHeader) != cacheHit {
		t.Fatalf("second request cache %q, want L1 hit", hdr.Get(cacheHeader))
	}

	// Keep inc and topm fresh across the horizon; doomed idles out.
	clk.advance(40 * time.Second)
	snap1 := map[string][]byte{}
	for _, id := range []string{"inc", "topm"} {
		code, body := doJSON(t, http.MethodGet, ts1.URL+"/v1/stream/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("snapshot %s: status %d: %s", id, code, body)
		}
		snap1[id] = body
	}
	clk.advance(40 * time.Second)
	if code, _ := doJSON(t, http.MethodGet, ts1.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatal("healthz sweep failed")
	}
	if code, _ := doJSON(t, http.MethodGet, ts1.URL+"/v1/stream/doomed", ""); code != http.StatusNotFound {
		t.Fatalf("evicted session still served pre-restart: %d", code)
	}

	// "Process exit": stop the listener, close the journal.
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newFleetServer(t, c)
	if srv2.recovered != 2 {
		t.Fatalf("recovered %d sessions, want 2 (doomed was tombstoned)", srv2.recovered)
	}

	// healthz reports the durability story.
	code, body := doJSON(t, http.MethodGet, ts2.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var health struct {
		Durable           bool   `json:"durable"`
		RecoveredSessions int    `json:"recovered_sessions"`
		CacheL2           bool   `json:"cache_l2"`
		WALSync           string `json:"wal_sync"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if !health.Durable || health.RecoveredSessions != 2 || !health.CacheL2 || health.WALSync != "never" {
		t.Fatalf("healthz durability fields: %+v", health)
	}

	// Recovered sessions snapshot byte-identically to the pre-restart run.
	for _, id := range []string{"inc", "topm"} {
		code, body := doJSON(t, http.MethodGet, ts2.URL+"/v1/stream/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("post-restart snapshot %s: status %d: %s", id, code, body)
		}
		if !bytes.Equal(body, snap1[id]) {
			t.Fatalf("session %s snapshot diverged across restart:\npre:  %s\npost: %s", id, snap1[id], body)
		}
	}
	// The evicted session must not be resurrected by replay.
	if code, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/stream/doomed", ""); code != http.StatusNotFound {
		t.Fatalf("evicted session resurrected by restart: %d", code)
	}
	// Recovered sessions are live: further ingest and snapshot work.
	if code, resp := postJSON(t, ts2.URL+"/v1/stream/inc/shots", `{"shots": ["111100"]}`); code != http.StatusOK {
		t.Fatalf("post-restart ingest: %d: %s", code, resp)
	}

	// The cold L1 misses; the file-backed L2 serves the byte-identical body.
	code, l2Body, hdr := postHeaders(t, ts2.URL+"/v1/reconstruct", reconBody)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheHitL2 {
		t.Fatalf("post-restart reconstruct status %d, cache %q (want %q)", code, hdr.Get(cacheHeader), cacheHitL2)
	}
	if !bytes.Equal(l2Body, missBody) {
		t.Fatalf("L2 hit body differs from the miss that filled it:\nmiss: %s\nl2:   %s", missBody, l2Body)
	}
	// The hit was promoted into L1.
	if _, _, hdr := postHeaders(t, ts2.URL+"/v1/reconstruct", reconBody); hdr.Get(cacheHeader) != cacheHit {
		t.Fatalf("L2 hit not promoted to L1: cache %q", hdr.Get(cacheHeader))
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoversRetiredEngineName: a -data directory journaled by a
// server that still had the bucketed engine holds sessions created with
// {"engine": "bucketed"}. The name is a retired alias of blocked now, so
// startup must recover the session rather than fail, and its snapshot must
// match the library's reconstruction of the same counts to 1e-12.
func TestDurableRecoversRetiredEngineName(t *testing.T) {
	dataDir := t.TempDir()
	st, err := wal.Open(dataDir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	log, err := st.Create("legacy", wal.SessionMeta{Width: 6, Engine: "bucketed"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{"111100": 40, "101100": 7, "011100": 5, "000011": 2, "111000": 9}
	var pairs []wal.Pair
	for k, v := range counts {
		x, err := strconv.ParseUint(k, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, wal.Pair{X: x, K: v})
	}
	if err := log.Append(pairs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := newFleetServer(t, serverConfig{DataDir: dataDir, WALSync: "never"})
	defer srv.Close()
	if srv.recovered != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv.recovered)
	}
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/legacy", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", code, body)
	}
	var snap streamSnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Engine != "blocked" || snap.Radius != 2 {
		t.Fatalf("snapshot ran engine %q at radius %d, want blocked at 2", snap.Engine, snap.Radius)
	}
	want, err := hammer.RunCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Dist) != len(want) {
		t.Fatalf("snapshot support %d, library %d", len(snap.Dist), len(want))
	}
	for k, p := range want {
		if q, ok := snap.Dist[k]; !ok || math.Abs(p-q) > 1e-12 {
			t.Fatalf("%s: snapshot %v, library %v", k, q, p)
		}
	}
}

// TestServeRetiredEngineLabel pins the engine a "bucketed" pin reports. A
// miss runs blocked and says so in the body and X-Hammer-Engine, and so does
// the L1 hit it fills. Cache keys hash the pin as sent, so an entry filled
// for the same request before the name was retired is still found, and that
// hit replays the label it was stored with: "bucketed".
func TestServeRetiredEngineLabel(t *testing.T) {
	const body = `{"counts": {"111100": 40, "101100": 7, "011100": 5, "000011": 2}, "config": {"engine": "bucketed", "radius": 2}}`
	check := func(ts *httptest.Server, tier, engine string) []byte {
		t.Helper()
		code, resp, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", body)
		if code != http.StatusOK || hdr.Get(cacheHeader) != tier {
			t.Fatalf("status %d, %s %q, want %q: %s", code, cacheHeader, hdr.Get(cacheHeader), tier, resp)
		}
		var rr reconstructResponse
		if err := json.Unmarshal(resp, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Engine != engine || hdr.Get(engineHeader) != engine {
			t.Fatalf("%s: body engine %q, %s %q, want %q", tier, rr.Engine, engineHeader, hdr.Get(engineHeader), engine)
		}
		return resp
	}
	srv, ts := newFleetServer(t, serverConfig{})
	fresh := check(ts, cacheMiss, "blocked")
	check(ts, cacheHit, "blocked")

	// The entry an older server wrote to its -cache-dir for this request.
	rr, err := decodeReconstruct([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := srv.requestOptions(rr.override)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l2, err := cache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(fresh, []byte(`"engine": "blocked"`), []byte(`"engine": "bucketed"`), 1)
	l2.Put(cache.KeyEntries(rr.entries, rr.width, *opts), cache.EncodeEntry("bucketed", old))
	_, ts2 := newFleetServer(t, serverConfig{CacheDir: dir})
	if got := check(ts2, cacheHitL2, "bucketed"); !bytes.Equal(got, old) {
		t.Fatalf("L2 hit %s, stored %s", got, old)
	}
}

// TestServeDurableFlagValidation: a bad -wal-sync value fails construction
// rather than silently defaulting.
func TestServeDurableFlagValidation(t *testing.T) {
	_, err := newServer(serverConfig{Config: hammer.Config{Workers: 1},
		CacheEntries: cache.DefaultEntries, DataDir: t.TempDir(), WALSync: "sometimes"})
	if err == nil {
		t.Fatal("invalid -wal-sync accepted")
	}
}

// TestServeConstructorClosesJournal: a configuration error found after the
// journal has recovered its sessions (here, a -replicas value naming no
// replica) fails construction and closes the recovered logs with it.
func TestServeConstructorClosesJournal(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	c := serverConfig{DataDir: t.TempDir(), WALSync: "never"}
	srv, ts := newFleetServer(t, c)
	createStream(t, ts.URL, `{"id": "kept", "width": 4}`)
	if code, body := postJSON(t, ts.URL+"/v1/stream/kept/shots", `{"shots": ["1100", "0011"]}`); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	before := fds()
	c.Replicas = ","
	if _, err := newServer(c); err == nil {
		t.Fatal("a -replicas value naming no replica was accepted")
	}
	if after := fds(); after > before {
		t.Fatalf("%d file descriptors left open by the failed construction", after-before)
	}
}

// TestDurableIngestShotBound: an ingest that would take a session past
// dist.MaxShots is a 400 that leaves the session unchanged, while one
// that lands exactly on the bound — with a count far above 2^50 — is
// acknowledged and survives a restart with the exact shot count: the
// bound live ingest enforces is the one replay does.
func TestDurableIngestShotBound(t *testing.T) {
	c := serverConfig{DataDir: t.TempDir(), WALSync: "never"}
	srv1, ts1 := newFleetServer(t, c)
	createStream(t, ts1.URL, `{"id": "big", "width": 4}`)
	shotsOf := func(url string) (int, int) {
		t.Helper()
		code, body := doJSON(t, http.MethodGet, url+"/v1/stream/big", "")
		if code != http.StatusOK {
			t.Fatalf("snapshot: status %d: %s", code, body)
		}
		var snap streamSnapshotResponse
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Shots, snap.Support
	}

	atBound := `{"counts": {"0101": ` + strconv.Itoa(dist.MaxShots-3) + `, "0011": 3}}`
	if code, body := postJSON(t, ts1.URL+"/v1/stream/big/shots", atBound); code != http.StatusOK {
		t.Fatalf("ingest up to the bound: status %d: %s", code, body)
	}
	if code, body := postJSON(t, ts1.URL+"/v1/stream/big/shots", `{"counts": {"1111": 1, "0000": 2}}`); code != http.StatusBadRequest {
		t.Fatalf("ingest past the bound: status %d, want 400: %s", code, body)
	}
	if shots, support := shotsOf(ts1.URL); shots != dist.MaxShots || support != 2 {
		t.Fatalf("refused ingest changed the session: shots %d support %d", shots, support)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newFleetServer(t, c)
	if srv2.recovered != 1 {
		t.Fatalf("recovered %d sessions, want 1", srv2.recovered)
	}
	if shots, support := shotsOf(ts2.URL); shots != dist.MaxShots || support != 2 {
		t.Fatalf("after restart: shots %d support %d, want %d and 2", shots, support, dist.MaxShots)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}
