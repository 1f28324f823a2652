package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/sched"
	"repro/internal/serve"
)

// post is the goroutine-safe request helper for the e2e suite: it returns
// errors instead of calling into testing.T, so concurrent traffic can report
// through t.Errorf on its own goroutine.
func post(url, body string) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}

// TestServeLifecycleE2E drives the full serving surface through one server
// under -race: a streaming session's whole documented lifecycle (create,
// ingest over several requests, snapshot, idle-TTL eviction on a fake clock)
// interleaved with concurrent batch traffic carrying per-request config
// overrides, plus result-cache miss/hit traffic — then pins the /metrics
// counters the traffic must have produced: exact cache hit/miss counts,
// session created/evicted counts, exact batch request counts, and the
// cost-model predicted-vs-actual series.
func TestServeLifecycleE2E(t *testing.T) {
	clk := &fakeServeClock{t: time.Unix(9000, 0)}
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 2}, Sched: sched.PolicySPJF,
		Sessions: serve.Config{TTL: time.Minute, Now: clk.now}, CacheEntries: cache.DefaultEntries})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	// Stream lifecycle, part 1: create a named session.
	cr := createStream(t, ts.URL, `{"id": "e2e", "width": 6}`)
	if cr.ID != "e2e" || cr.Width != 6 {
		t.Fatalf("create response %+v", cr)
	}
	streamURL := ts.URL + "/v1/stream/e2e"

	// Interleaved traffic: one goroutine ingests shot batches into the
	// stream while three others pound /v1/batch, each batch mixing a bare
	// histogram with a config-overridden request pinning the exact engine.
	const (
		batchGoroutines = 3
		batchesPerG     = 5
		ingestBatches   = 5
	)
	batchBody := `{"requests": [
		{"110000": 20, "100000": 4},
		{"counts": {"111111": 9, "011111": 3}, "config": {"radius": 1, "engine": "exact"}}
	]}`
	var wg sync.WaitGroup
	for g := 0; g < batchGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batchesPerG; i++ {
				resp, body, err := post(ts.URL+"/v1/batch", batchBody)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch status %d: %s", resp.StatusCode, body)
					return
				}
				var br batchResponse
				if err := json.Unmarshal(body, &br); err != nil {
					t.Error(err)
					return
				}
				if len(br.Results) != 2 || br.Results[1].Engine != "exact" || br.Results[1].Radius != 1 {
					t.Errorf("override not honored: %+v", br.Results)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ingestBatches; i++ {
			resp, body, err := post(streamURL+"/shots",
				`{"counts": {"111100": 8, "111000": 1, "101100": 1}}`)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest status %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Result cache: the same reconstruction twice — a miss that fills the
	// entry, then a byte-identical hit, both reporting the engine.
	cacheIn := `{"010100": 25, "010000": 5, "000100": 3}`
	missResp, missBody, err := post(ts.URL+"/v1/reconstruct", cacheIn)
	if err != nil {
		t.Fatal(err)
	}
	if missResp.StatusCode != http.StatusOK || missResp.Header.Get(cacheHeader) != cacheMiss {
		t.Fatalf("miss: status %d, %s=%q", missResp.StatusCode, cacheHeader, missResp.Header.Get(cacheHeader))
	}
	hitResp, hitBody, err := post(ts.URL+"/v1/reconstruct", cacheIn)
	if err != nil {
		t.Fatal(err)
	}
	if hitResp.Header.Get(cacheHeader) != cacheHit {
		t.Fatalf("hit: %s=%q", cacheHeader, hitResp.Header.Get(cacheHeader))
	}
	if !bytes.Equal(missBody, hitBody) {
		t.Error("cache hit body differs from the miss that filled it")
	}
	if e := hitResp.Header.Get(engineHeader); e == "" || e != missResp.Header.Get(engineHeader) {
		t.Errorf("engine header miss=%q hit=%q", missResp.Header.Get(engineHeader), e)
	}

	// Stream lifecycle, part 2: the snapshot over everything ingested must
	// match the batch pipeline on the accumulated histogram.
	code, body := doJSON(t, http.MethodGet, streamURL, "")
	if code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", code, body)
	}
	var snap streamSnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	accumulated := map[string]float64{
		"111100": 8 * ingestBatches,
		"111000": 1 * ingestBatches,
		"101100": 1 * ingestBatches,
	}
	if snap.Shots != 10*ingestBatches || snap.Support != len(accumulated) {
		t.Fatalf("snapshot %+v, want %d shots over %d outcomes", snap, 10*ingestBatches, len(accumulated))
	}
	want, err := hammer.Run(accumulated)
	if err != nil {
		t.Fatal(err)
	}
	for k, wv := range want {
		if gv, ok := snap.Dist[k]; !ok || math.Abs(gv-wv) > 1e-12 {
			t.Errorf("snapshot[%s] = %v, want %v", k, snap.Dist[k], wv)
		}
	}

	// Stream lifecycle, part 3: idle past the TTL, the session is evicted
	// on next access.
	clk.advance(2 * time.Minute)
	if code, body := doJSON(t, http.MethodGet, streamURL, ""); code != http.StatusNotFound {
		t.Fatalf("post-TTL snapshot status %d: %s", code, body)
	}

	// The metrics must account for exactly the traffic this test sent.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	for _, want := range []string{
		"hammer_sessions_created_total 1",
		"hammer_sessions_evicted_total 1",
		// Exactly two reconstructs hit the cache path: one miss filling
		// the entry, one hit replaying it.
		"hammer_cache_hits_total 1",
		"hammer_cache_misses_total 1",
		`hammer_http_requests_total{endpoint="/v1/batch",code="2xx"} 15`,
		// Cost-model series observed for the served engines.
		`hammer_cost_predicted_seconds_count{engine="`,
		`hammer_cost_actual_seconds_count{engine="`,
		`hammer_cost_error_ratio_count{engine="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
