package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/dist"
)

// shardHistogram builds a Hamming-clustered histogram JSON body with the
// given support, the workload shape whose neighborhoods exercise every
// distance shell.
func shardHistogram(t *testing.T, bits, support int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	counts := make(map[string]float64, support)
	key := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(bits)
	counts[bitstr.Format(key, bits)] = 500
	for i := 0; i < bits && len(counts) < support; i++ {
		counts[bitstr.Format(bitstr.Flip(key, i), bits)] = 100 + float64(rng.Intn(100))
	}
	for len(counts) < support {
		x := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(bits)
		counts[bitstr.Format(x, bits)] = 1 + float64(rng.Intn(5))
	}
	body, err := json.Marshal(counts)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// takesMultiIndex reports whether the blocked engine scans the histogram at
// the given radius with its block multi-index: whether that index's exact
// candidate count is at most half the weight window's.
func takesMultiIndex(t *testing.T, hist string, radius int) bool {
	t.Helper()
	var counts map[string]float64
	if err := json.Unmarshal([]byte(hist), &counts); err != nil {
		t.Fatal(err)
	}
	d, _, err := dist.FromHistogram(counts)
	if err != nil {
		t.Fatal(err)
	}
	ix := dist.NewIndex(d)
	_, built := new(dist.MultiIndex).Reset(ix, radius, ix.WindowPairs(radius)/2)
	return built
}

// newShardedServer builds a caching-disabled coordinator server fanning out
// to the given replica URLs, sharding everything with at least minSupport
// outcomes.
func newShardedServer(t *testing.T, replicas []string, minSupport int) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 4},
		Replicas: strings.Join(replicas, ","), ShardMinSupport: minSupport})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newReplicaServer builds a plain server (every server exposes the replica
// endpoint) and returns its URL.
func newReplicaServer(t *testing.T) string {
	t.Helper()
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts.URL
}

func decodeReconstructResponse(t *testing.T, body []byte) reconstructResponse {
	t.Helper()
	var resp reconstructResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return resp
}

func distTVD(a, b map[string]float64) float64 {
	sum := 0.0
	for k, p := range a {
		sum += math.Abs(p - b[k])
	}
	for k, p := range b {
		if _, ok := a[k]; !ok {
			sum += p
		}
	}
	return sum / 2
}

// TestShardE2EMatchesSingleNode pins the end-to-end sharding contract: a
// reconstruction fanned across two real replica servers matches the
// single-node answer within 1e-12 total variation, across config overrides
// including TopM, and reports a sharded: engine label. The radius-3 case
// runs the blocked engine's block multi-index scan on every replica.
func TestShardE2EMatchesSingleNode(t *testing.T) {
	replicas := []string{newReplicaServer(t), newReplicaServer(t)}
	_, coord := newShardedServer(t, replicas, 1)
	single := newTestServer(t, hammer.Config{}, 2)

	hist := shardHistogram(t, 14, 300, 42)
	wide := shardHistogram(t, 20, 400, 3)
	if !takesMultiIndex(t, wide, 3) {
		t.Fatal("test premise broken: the 20-bit histogram does not take the multi-index scan at radius 3")
	}
	for _, tc := range []struct {
		name string
		body string
	}{
		{"bare", hist},
		{"blocked pin", fmt.Sprintf(`{"counts": %s, "config": {"engine": "blocked"}}`, hist)},
		{"bucketed radius", fmt.Sprintf(`{"counts": %s, "config": {"engine": "bucketed", "radius": 4}}`, hist)},
		{"topm", fmt.Sprintf(`{"counts": %s, "config": {"topm": 120}}`, hist)},
		{"radius 3", fmt.Sprintf(`{"counts": %s, "config": {"radius": 3}}`, wide)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(coord.URL+"/v1/reconstruct", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			shardedBody := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sharded status %d: %s", resp.StatusCode, shardedBody)
			}
			if eng := resp.Header.Get(engineHeader); !strings.HasPrefix(eng, "sharded:") {
				t.Fatalf("engine header %q lacks sharded: prefix", eng)
			}
			sharded := decodeReconstructResponse(t, []byte(shardedBody))

			code, refBody := postJSON(t, single.URL+"/v1/reconstruct", tc.body)
			if code != http.StatusOK {
				t.Fatalf("single-node status %d: %s", code, refBody)
			}
			ref := decodeReconstructResponse(t, refBody)
			if d := distTVD(sharded.Dist, ref.Dist); d > 1e-12 {
				t.Fatalf("sharded vs single-node TVD = %g, want <= 1e-12", d)
			}
			if sharded.Support != ref.Support || sharded.Radius != ref.Radius {
				t.Fatalf("metadata drift: sharded %+v vs single %+v", sharded, ref)
			}
		})
	}
}

// TestShardE2EReplicaFailure kills one of two replicas and checks the
// coordinator degrades per stripe: the request still succeeds, the answer
// still matches single-node within 1e-12, and the fallback metrics count
// exactly the stripes that failed over.
func TestShardE2EReplicaFailure(t *testing.T) {
	good := newReplicaServer(t)
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	dead := deadSrv.URL
	deadSrv.Close() // connection refused from here on

	srv, coord := newShardedServer(t, []string{good, dead}, 1)
	single := newTestServer(t, hammer.Config{}, 2)

	hist := shardHistogram(t, 13, 200, 7)
	resp, err := http.Post(coord.URL+"/v1/reconstruct", "application/json", strings.NewReader(hist))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with a dead replica: %s", resp.StatusCode, body)
	}
	sharded := decodeReconstructResponse(t, []byte(body))
	code, refBody := postJSON(t, single.URL+"/v1/reconstruct", hist)
	if code != http.StatusOK {
		t.Fatalf("single-node status %d", code)
	}
	ref := decodeReconstructResponse(t, refBody)
	if d := distTVD(sharded.Dist, ref.Dist); d > 1e-12 {
		t.Fatalf("degraded result TVD = %g, want <= 1e-12", d)
	}

	// Exactly one of the two stripes failed over, for exactly one merge.
	if got := srv.metrics.shard.Fallbacks.Value("error"); got != 1 {
		t.Fatalf("fallback(error) = %d, want 1", got)
	}
	if got := srv.metrics.shard.StripeSeconds.Count(); got != 2 {
		t.Fatalf("stripe RPC observations = %d, want 2", got)
	}
	if got := srv.metrics.shard.MergeSeconds.Count(); got != 1 {
		t.Fatalf("merge observations = %d, want 1", got)
	}
	mresp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, mresp)
	for _, want := range []string{
		`hammer_shard_fallback_total{reason="error"} 1`,
		"hammer_shard_stripe_seconds_count 2",
		"hammer_shard_merge_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestShardE2ESlowReplica pins the deadline-budget degradation and client
// cancellation: a replica that never answers is cut off by the cost-model
// stripe budget (request still succeeds, fallback counted as "deadline"),
// and a client that disconnects mid-fan-out gets no zombie work — the next
// request is served normally.
func TestShardE2ESlowReplica(t *testing.T) {
	testDone := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-testDone:
		}
	}))
	defer slow.Close()
	// LIFO: unblock parked handlers before Close waits on them.
	defer close(testDone)

	srv, coord := newShardedServer(t, []string{slow.URL}, 1)
	hist := shardHistogram(t, 12, 100, 3)

	// Client cancellation first: the coordinator must propagate it instead
	// of falling back (the client is gone either way).
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, coord.URL+"/v1/reconstruct", strings.NewReader(hist))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("canceled request returned a response")
	}

	// A patient client is served through the deadline fallback: the stripe
	// budget cuts the hung replica off and the stripe recomputes locally.
	resp, err := http.Post(coord.URL+"/v1/reconstruct", "application/json", strings.NewReader(hist))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after deadline fallback: %s", resp.StatusCode, body)
	}
	if got := srv.metrics.shard.Fallbacks.Value("deadline"); got == 0 {
		t.Fatal("deadline fallback not counted")
	}
}

// TestShardStripeEndpoint exercises the replica surface directly: a valid
// stripe request scores, malformed ones get 400s, and wrong methods 405.
func TestShardStripeEndpoint(t *testing.T) {
	url := newReplicaServer(t)
	req := `{"bits": 4, "outs": ["0001", "0010", "0100"], "probs": [0.2, 0.3, 0.5], "max_d": 2, "lo": 0, "hi": 3, "engine": "blocked"}`
	code, body := postJSON(t, url+"/v1/shard/reconstruct", req)
	if code != http.StatusOK {
		t.Fatalf("stripe status %d: %s", code, body)
	}
	var sr struct {
		Engine string    `json:"engine"`
		CHS    []float64 `json:"chs"`
		Rows   []float64 `json:"rows"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Engine != "blocked" || len(sr.CHS) != 3 || len(sr.Rows) != 9 {
		t.Fatalf("stripe response shape: %+v", sr)
	}

	for _, bad := range []string{
		`{"bits": 4}`,
		`{"bits": 4, "outs": ["0001", "0001"], "probs": [0.5, 0.5], "max_d": 1, "lo": 0, "hi": 2}`,
		`not json`,
	} {
		if code, _ := postJSON(t, url+"/v1/shard/reconstruct", bad); code != http.StatusBadRequest {
			t.Errorf("bad stripe body %q got status %d, want 400", bad, code)
		}
	}
	resp, err := http.Get(url + "/v1/shard/reconstruct")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET stripe endpoint = %d, want 405", resp.StatusCode)
	}
}
