package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sched"
)

// infeasibleBody builds a {"counts": ..., "deadline_ms": 1} request whose
// cost-model predicted runtime exceeds the 1 ms budget by at least an order
// of magnitude, growing the histogram until the model itself says so — the
// test tracks the fitted constants instead of hard-coding a size that a
// faster model would quietly make feasible.
func infeasibleBody(t *testing.T) string {
	t.Helper()
	opts, err := hammer.SessionOptions(hammer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, support := range []int{4000, 16000, 60000} {
		_, predicted, ok := core.PredictCost(opts, support, 16)
		if !ok || predicted < 10*time.Millisecond {
			continue
		}
		var sb strings.Builder
		sb.WriteString(`{"deadline_ms": 1, "counts": {`)
		for i := 0; i < support; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"%016b": 1`, i)
		}
		sb.WriteString("}}")
		return sb.String()
	}
	t.Fatal("no histogram size predicts over 10ms — cost model constants collapsed?")
	return ""
}

// TestServeDeadlineInfeasible pins the 504 contract: a request whose
// predicted runtime alone exceeds its deadline_ms budget is rejected up
// front with the infeasible message, and the rejection is counted in
// /metrics by reason. A /v1/batch member is admitted the same way, and its
// 504 carries its index.
func TestServeDeadlineInfeasible(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	infeasible := infeasibleBody(t)
	code, body := postJSON(t, ts.URL+"/v1/reconstruct", infeasible)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %.200s", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "infeasible") {
		t.Errorf("error %q lacks the infeasible marker", er.Error)
	}
	code, body = postJSON(t, ts.URL+"/v1/batch",
		`{"requests": [{"1010": 5, "1000": 2}, `+infeasible+`]}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("batch status %d, want 504: %.200s", code, body)
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Index != 1 || !strings.Contains(er.Error, "infeasible") {
		t.Errorf("batch error %+v, want the infeasible member at index 1", er)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	if want := `hammer_deadline_rejected_total{reason="infeasible"} 2`; !strings.Contains(text, want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestServeDeadlineRunsOut pins the 504 for a budget that runs out during an
// admitted reconstruction. Every one of the 4,000 outcomes lies 1–4 random
// bit flips from one 20-bit key. At radius 3 the cost model prices the
// request as if its pairs were uniform, while on this shape the scan visits
// nearly every pair and takes several times the prediction. With deadline_ms
// at twice the prediction the request is admitted, then runs out mid-scan:
// a deadline miss, not bad input.
func TestServeDeadlineRunsOut(t *testing.T) {
	const n, support = 20, 4000
	opts, err := hammer.SessionOptions(hammer.Config{Radius: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, predicted, ok := core.PredictCost(opts, support, n)
	if !ok {
		t.Fatal("no prediction for the blocked engine")
	}
	budget := (2*predicted + time.Millisecond - 1) / time.Millisecond
	rng := rand.New(rand.NewSource(7))
	key := rng.Intn(1 << n)
	seen := map[int]bool{}
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"deadline_ms": %d, "config": {"radius": 3}, "counts": {`, budget)
	for len(seen) < support {
		x, flips := key, 1+rng.Intn(4)
		for f := 0; f < flips; f++ {
			x ^= 1 << rng.Intn(n)
		}
		if seen[x] {
			continue
		}
		if len(seen) > 0 {
			sb.WriteByte(',')
		}
		seen[x] = true
		fmt.Fprintf(&sb, `"%0*b": %d`, n, x, 1+int(4096*math.Pow(0.25, float64(flips))*(0.5+rng.Float64())))
	}
	sb.WriteString("}}")

	ts := newTestServer(t, hammer.Config{}, 1)
	code, body := postJSON(t, ts.URL+"/v1/reconstruct", sb.String())
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (budget %d ms, %v predicted): %.200s", code, budget, predicted, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "deadline ran out during the reconstruction") {
		t.Errorf("error %q does not say the deadline ran out mid-run", er.Error)
	}
}

// TestServeDeadlineOverloaded pins the 429 contract: a feasible request
// whose worker slot never frees inside the budget is rejected as overload,
// distinguishable from the 504 (the client may retry this one).
func TestServeDeadlineOverloaded(t *testing.T) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, CacheEntries: cache.DefaultEntries})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	started := make(chan struct{})
	unblock := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- srv.sch.Do(context.Background(), func() error {
			close(started)
			<-unblock
			return nil
		})
	}()
	<-started
	defer func() {
		close(unblock)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	code, body := postJSON(t, ts.URL+"/v1/reconstruct",
		`{"counts": {"1010": 5, "1000": 2}, "deadline_ms": 50}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(er.Error, "infeasible") {
		t.Errorf("overload rejection labeled infeasible: %q", er.Error)
	}
}

// TestServeDeadlineNegative pins the wire validation: a negative budget is a
// 400, not a rejection dressed as deadline pressure.
func TestServeDeadlineNegative(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 1)
	code, body := postJSON(t, ts.URL+"/v1/reconstruct",
		`{"counts": {"1010": 5}, "deadline_ms": -3}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
}

// TestServeDeadlineSaturates: a deadline_ms whose nanoseconds overflow
// time.Duration is a budget that never runs out, not one wrapped to 448µs
// (the ~585-year budget) or to 1µs, which the infeasible body cannot meet.
// The cache is off, so every request is admitted against its deadline.
func TestServeDeadlineSaturates(t *testing.T) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	body := infeasibleBody(t)
	for _, ms := range []string{"18446744073710", "70761710266749840", "9223372036854775807"} {
		code, resp := postJSON(t, ts.URL+"/v1/reconstruct",
			strings.Replace(body, `"deadline_ms": 1,`, `"deadline_ms": `+ms+`,`, 1))
		if code != http.StatusOK {
			t.Errorf("deadline_ms %s: status %d: %.200s", ms, code, resp)
		}
	}
}

// TestServeEngineHeader pins X-Hammer-Engine: fresh responses report the
// engine that ran (matching the body), cache hits replay the engine that
// filled the entry, and a pinned per-request override is echoed verbatim.
func TestServeEngineHeader(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp, []byte(readAll(t, resp))
	}

	in := `{"111": 30, "110": 10, "001": 5}`
	resp, body := post(in)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr reconstructResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	engine := resp.Header.Get(engineHeader)
	if engine == "" || engine != rr.Engine {
		t.Fatalf("header engine %q, body engine %q", engine, rr.Engine)
	}
	if got := resp.Header.Get(cacheHeader); got != cacheMiss {
		t.Fatalf("first request %s = %q", cacheHeader, got)
	}

	resp, _ = post(in)
	if got := resp.Header.Get(cacheHeader); got != cacheHit {
		t.Fatalf("second request %s = %q", cacheHeader, got)
	}
	if got := resp.Header.Get(engineHeader); got != engine {
		t.Errorf("cache hit engine %q, want %q", got, engine)
	}

	resp, body = post(`{"counts": {"111": 30, "110": 10}, "config": {"engine": "exact"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned request status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(engineHeader); got != "exact" {
		t.Errorf("pinned engine header %q, want exact", got)
	}
}

// TestServeCostMetricsExposed pins the predicted-vs-actual instrumentation
// on the wire: one served request observes all three hammer_cost_* series
// labeled with the engine the response reported.
func TestServeCostMetricsExposed(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 1)
	resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json",
		strings.NewReader(`{"1100": 20, "1000": 4, "0100": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	engine := resp.Header.Get(engineHeader)
	if engine == "" {
		t.Fatal("no engine header on served response")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, mresp)
	for _, want := range []string{
		`hammer_cost_predicted_seconds_count{engine="` + engine + `"} 1`,
		`hammer_cost_actual_seconds_count{engine="` + engine + `"} 1`,
		`hammer_cost_error_ratio_count{engine="` + engine + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServePolicy pins the -sched wiring: the policy reaches the scheduler,
// shows up in /healthz, and an unknown name fails construction.
func TestServePolicy(t *testing.T) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 2}, Sched: sched.PolicySPJF, CacheEntries: cache.DefaultEntries})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Policy string `json:"policy"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &h); err != nil {
		t.Fatal(err)
	}
	if h.Policy != sched.PolicySPJF {
		t.Errorf("healthz policy %q, want %q", h.Policy, sched.PolicySPJF)
	}
	if _, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, Sched: "lifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, CacheEntries: cache.DefaultEntries}); err != nil || srv.sch.Policy() != sched.PolicyFIFO {
		t.Errorf("default policy: %v, %q", err, srv.sch.Policy())
	}
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
