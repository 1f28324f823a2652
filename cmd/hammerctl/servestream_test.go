package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/serve"
)

// newTestServerWith builds a test server with explicit session-manager limits
// (fake clocks, tiny caps) for the eviction and capacity tests.
func newTestServerWith(t *testing.T, cfg hammer.Config, workers int, sc serve.Config) *httptest.Server {
	t.Helper()
	cfg.Workers = workers
	srv, err := newServer(serverConfig{Config: cfg, Sessions: sc, CacheEntries: cache.DefaultEntries})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
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
	return resp.StatusCode, buf.Bytes()
}

func createStream(t *testing.T, baseURL, body string) streamCreateResponse {
	t.Helper()
	code, resp := postJSON(t, baseURL+"/v1/stream", body)
	if code != http.StatusCreated {
		t.Fatalf("create status %d: %s", code, resp)
	}
	var cr streamCreateResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID == "" {
		t.Fatalf("create returned empty id: %s", resp)
	}
	return cr
}

// TestStreamSessionE2E drives the documented lifecycle end to end — create,
// ingest over several requests (JSON shot list, JSON counts, text/plain
// lines), snapshot, delete — and pins the final snapshot against hammer.Run
// on the same accumulated histogram to 1e-12 (the repo-wide streaming/batch
// agreement bound).
func TestStreamSessionE2E(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	cr := createStream(t, ts.URL, `{"width": 6}`)
	if cr.Width != 6 || !cr.Incremental {
		t.Fatalf("create response %+v", cr)
	}
	base := ts.URL + "/v1/stream/" + cr.ID

	accumulated := map[string]float64{}
	add := func(shot string, k int) { accumulated[shot] += float64(k) }

	// Batch 1: JSON shot list.
	code, resp := postJSON(t, base+"/shots", `{"shots": ["111100", "111100", "111000"]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest 1 status %d: %s", code, resp)
	}
	add("111100", 2)
	add("111000", 1)
	var ir streamIngestResponse
	if err := json.Unmarshal(resp, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 3 || ir.Shots != 3 || ir.Support != 2 || ir.Snapshot != nil {
		t.Fatalf("ingest 1 response %+v", ir)
	}

	// Batch 2: JSON counts histogram, snapshot rolled into the response.
	code, resp = postJSON(t, base+"/shots?snapshot=1",
		`{"counts": {"111100": 40, "101100": 7, "011100": 5, "111101": 6, "000011": 2}}`)
	if code != http.StatusOK {
		t.Fatalf("ingest 2 status %d: %s", code, resp)
	}
	add("111100", 40)
	add("101100", 7)
	add("011100", 5)
	add("111101", 6)
	add("000011", 2)
	if err := json.Unmarshal(resp, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Snapshot == nil || ir.Snapshot.Shots != 63 || ir.Snapshot.Engine == "" {
		t.Fatalf("inline snapshot missing: %+v", ir)
	}

	// Batch 3: text/plain line format, comments and repeat counts included.
	req, err := http.NewRequest(http.MethodPost, base+"/shots",
		strings.NewReader("111100 10\n# a comment\n\n110100\n000011 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("ingest 3 status %d", hr.StatusCode)
	}
	add("111100", 10)
	add("110100", 1)
	add("000011", 3)

	// Snapshot: must match the batch pipeline on the accumulated histogram.
	code, resp = doJSON(t, http.MethodGet, base, "")
	if code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", code, resp)
	}
	var snap streamSnapshotResponse
	if err := json.Unmarshal(resp, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != cr.ID || snap.Shots != 77 || snap.Support != len(accumulated) {
		t.Fatalf("snapshot metadata %+v (want %d shots over %d outcomes)", snap, 77, len(accumulated))
	}
	want, err := hammer.Run(accumulated)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Dist) != len(want) {
		t.Fatalf("snapshot support %d, want %d", len(snap.Dist), len(want))
	}
	for k, p := range want {
		if math.Abs(snap.Dist[k]-p) > 1e-12 {
			t.Errorf("%s: served %v, batch %v", k, snap.Dist[k], p)
		}
	}

	// Delete, then every session operation is a 404 with the error envelope.
	code, resp = doJSON(t, http.MethodDelete, base, "")
	if code != http.StatusOK {
		t.Fatalf("delete status %d: %s", code, resp)
	}
	var dr streamDeleteResponse
	if err := json.Unmarshal(resp, &dr); err != nil || !dr.Deleted || dr.ID != cr.ID {
		t.Fatalf("delete response %s (%v)", resp, err)
	}
	for _, probe := range []struct{ method, url, body string }{
		{http.MethodGet, base, ""},
		{http.MethodDelete, base, ""},
		{http.MethodPost, base + "/shots", `{"shots": ["111100"]}`},
	} {
		code, resp := doJSON(t, probe.method, probe.url, probe.body)
		if code != http.StatusNotFound {
			t.Errorf("%s %s after delete: status %d", probe.method, probe.url, code)
		}
		var e errorResponse
		if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" || e.Index != -1 {
			t.Errorf("%s after delete: envelope %s", probe.method, resp)
		}
	}
}

// TestStreamFallbackConfigs pins the batch-fallback path inside served
// sessions: TopM truncation and a pinned batch engine cannot be served
// incrementally, so their snapshots run the batch pipeline — and must match
// RunWithConfig on the accumulated histogram exactly.
func TestStreamFallbackConfigs(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	for name, tc := range map[string]struct {
		create string
		cfg    hammer.Config
	}{
		"topm":          {`{"width": 6, "config": {"topm": 3}}`, hammer.Config{TopM: 3, Workers: 1}},
		"pinned engine": {`{"width": 6, "config": {"engine": "bucketed"}}`, hammer.Config{Engine: "bucketed", Workers: 1}},
	} {
		cr := createStream(t, ts.URL, tc.create)
		if cr.Incremental {
			t.Errorf("%s: config reported as incremental-capable", name)
		}
		base := ts.URL + "/v1/stream/" + cr.ID
		hist := map[string]float64{}
		counts := map[string]int{"111100": 30, "111000": 9, "101100": 6, "011100": 5, "000011": 2}
		var ingest []string
		for k, v := range counts {
			hist[k] = float64(v)
			ingest = append(ingest, fmt.Sprintf("%q: %d", k, v))
		}
		code, resp := postJSON(t, base+"/shots", `{"counts": {`+strings.Join(ingest, ",")+`}}`)
		if code != http.StatusOK {
			t.Fatalf("%s: ingest status %d: %s", name, code, resp)
		}
		code, resp = doJSON(t, http.MethodGet, base, "")
		if code != http.StatusOK {
			t.Fatalf("%s: snapshot status %d: %s", name, code, resp)
		}
		var snap streamSnapshotResponse
		if err := json.Unmarshal(resp, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Engine == "incremental" {
			t.Errorf("%s: snapshot served incrementally", name)
		}
		want, err := hammer.RunWithConfig(hist, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range want {
			if math.Abs(snap.Dist[k]-p) > 1e-12 {
				t.Errorf("%s: %s: served %v, batch %v", name, k, snap.Dist[k], p)
			}
		}
	}
}

// fakeServeClock is an adjustable clock for serve.Config.Now.
type fakeServeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeServeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeServeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestStreamEvictionMidStream: a session idle past the TTL is evicted even
// with shots already ingested, and later requests get the documented 404
// error envelope.
func TestStreamEvictionMidStream(t *testing.T) {
	clk := &fakeServeClock{t: time.Unix(4000, 0)}
	ts := newTestServerWith(t, hammer.Config{}, 2, serve.Config{TTL: time.Minute, Now: clk.now})
	cr := createStream(t, ts.URL, `{"width": 4}`)
	base := ts.URL + "/v1/stream/" + cr.ID
	if code, resp := postJSON(t, base+"/shots", `{"shots": ["1111", "1110"]}`); code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, resp)
	}
	// Within the TTL the session is alive mid-stream.
	clk.advance(30 * time.Second)
	if code, _ := doJSON(t, http.MethodGet, base, ""); code != http.StatusOK {
		t.Fatalf("snapshot within TTL: status %d", code)
	}
	// Past the TTL it is gone — ingest, snapshot, and delete all 404 with
	// the error envelope.
	clk.advance(2 * time.Minute)
	for _, probe := range []struct{ method, url, body string }{
		{http.MethodPost, base + "/shots", `{"shots": ["1111"]}`},
		{http.MethodGet, base, ""},
		{http.MethodDelete, base, ""},
	} {
		code, resp := doJSON(t, probe.method, probe.url, probe.body)
		if code != http.StatusNotFound {
			t.Errorf("%s %s after eviction: status %d (%s)", probe.method, probe.url, code, resp)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" || e.Index != -1 {
			t.Errorf("eviction envelope: %s", resp)
		}
	}
}

func TestStreamCreateErrors(t *testing.T) {
	ts := newTestServerWith(t, hammer.Config{}, 2, serve.Config{MaxSessions: 2})
	// Named create + collision.
	cr := createStream(t, ts.URL, `{"id": "qaoa-7", "width": 5}`)
	if cr.ID != "qaoa-7" {
		t.Fatalf("named create: %+v", cr)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/stream", `{"id": "qaoa-7", "width": 5}`); code != http.StatusConflict {
		t.Errorf("duplicate id: status %d", code)
	}
	// Session cap: third live session is 429.
	createStream(t, ts.URL, `{"width": 5}`)
	if code, _ := postJSON(t, ts.URL+"/v1/stream", `{"width": 5}`); code != http.StatusTooManyRequests {
		t.Errorf("over cap: status %d", code)
	}
	// Invalid creates are 400.
	for name, body := range map[string]string{
		"no width":       `{}`,
		"width range":    `{"width": 99}`,
		"bad config":     `{"width": 5, "config": {"engine": "fpga"}}`,
		"bad weights":    `{"width": 5, "config": {"weights": "quadratic"}}`,
		"not an object":  `[1]`,
		"unroutable id":  `{"id": "run/7", "width": 5}`,
		"streaming-only": `{"width": 5, "config": {"engine": "incremental", "topm": 3}}`,
	} {
		if code, resp := postJSON(t, ts.URL+"/v1/stream", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, code, resp)
		}
	}
	// Snapshot before any shots: 409 with envelope.
	code, resp := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/qaoa-7", "")
	if code != http.StatusConflict {
		t.Errorf("empty snapshot: status %d (%s)", code, resp)
	}
}

func TestStreamIngestErrors(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	cr := createStream(t, ts.URL, `{"width": 4}`)
	base := ts.URL + "/v1/stream/" + cr.ID
	for name, body := range map[string]string{
		"empty":          `{}`,
		"width mismatch": `{"shots": ["111"]}`,
		"bad bitstring":  `{"shots": ["1x11"]}`,
		"zero count":     `{"counts": {"1111": 0}}`,
		"negative count": `{"counts": {"1111": -2}}`,
		"not an object":  `"1111"`,
	} {
		if code, resp := postJSON(t, base+"/shots", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, code, resp)
		}
	}
	// A rejected batch must not be half-applied: the valid prefix of the
	// width-mismatch batch stays out of the histogram.
	if code, resp := postJSON(t, base+"/shots", `{"shots": ["1111", "111"]}`); code != http.StatusBadRequest {
		t.Fatalf("mixed batch accepted: %d (%s)", code, resp)
	}
	code, resp := postJSON(t, base+"/shots?snapshot=1", `{"shots": ["1111"]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, resp)
	}
	var ir streamIngestResponse
	if err := json.Unmarshal(resp, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Shots != 1 || ir.Support != 1 {
		t.Errorf("rejected batch leaked into the session: %+v", ir)
	}
	// Unknown method on the session resource.
	if code, _ := doJSON(t, http.MethodPut, base, `{}`); code != http.StatusMethodNotAllowed {
		t.Errorf("PUT session: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, base+"/shots", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET shots: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stream/", ""); code != http.StatusNotFound {
		t.Errorf("bare /v1/stream/: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stream", `{}`); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/stream: status %d", code)
	}
}

// TestServeContentType pins the 415 hardening: declared non-JSON bodies are
// rejected before parsing, on every POST endpoint; the shots endpoint
// additionally accepts text/plain; charset parameters are tolerated.
func TestServeContentType(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	cr := createStream(t, ts.URL, `{"width": 4}`)
	post := func(url, ct, body string) int {
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	form := "application/x-www-form-urlencoded"
	for _, url := range []string{
		ts.URL + "/v1/reconstruct",
		ts.URL + "/v1/batch",
		ts.URL + "/v1/stream",
		ts.URL + "/v1/stream/" + cr.ID + "/shots",
	} {
		if code := post(url, form, `{"1111": 3}`); code != http.StatusUnsupportedMediaType {
			t.Errorf("%s with %s: status %d, want 415", url, form, code)
		}
	}
	// text/plain is only the shots endpoint's line format.
	if code := post(ts.URL+"/v1/reconstruct", "text/plain", `{"1111": 3}`); code != http.StatusUnsupportedMediaType {
		t.Errorf("reconstruct with text/plain: status %d, want 415", code)
	}
	if code := post(ts.URL+"/v1/stream/"+cr.ID+"/shots", "text/plain; charset=utf-8", "1111 3\n"); code != http.StatusOK {
		t.Errorf("shots with text/plain charset: status %d, want 200", code)
	}
	// Media types are case-insensitive (RFC 2045): the body-format dispatch
	// must agree with the 415 gate on the canonical type.
	if code := post(ts.URL+"/v1/stream/"+cr.ID+"/shots", "Text/Plain", "1111 2\n"); code != http.StatusOK {
		t.Errorf("shots with Text/Plain: status %d, want 200", code)
	}
	// Missing Content-Type and JSON-with-charset stay accepted.
	if code := post(ts.URL+"/v1/reconstruct", "", `{"1111": 3, "1110": 1}`); code != http.StatusOK {
		t.Errorf("no content type: status %d", code)
	}
	if code := post(ts.URL+"/v1/reconstruct", "application/json; charset=utf-8", `{"1111": 3, "1110": 1}`); code != http.StatusOK {
		t.Errorf("json with charset: status %d", code)
	}
}
