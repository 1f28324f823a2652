package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hammer "repro"
	"repro/internal/sched"
)

func newTestServer(t *testing.T, cfg hammer.Config, workers int) *httptest.Server {
	t.Helper()
	srv, err := newServer(cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
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
	return resp.StatusCode, buf.Bytes()
}

func TestServeHealthz(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 3)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		OK      bool   `json:"ok"`
		Workers int    `json:"workers"`
		Engine  string `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Workers != 3 || h.Engine != "auto" {
		t.Errorf("healthz = %+v", h)
	}
	if code, _ := postJSON(t, ts.URL+"/healthz", "{}"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d", code)
	}
}

func TestServeReconstruct(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	in := `{"111": 30, "110": 10, "001": 5}`
	code, body := postJSON(t, ts.URL+"/v1/reconstruct", in)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp reconstructResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Support != 3 || len(resp.Dist) != 3 {
		t.Errorf("support %d, dist %v", resp.Support, resp.Dist)
	}
	if resp.Engine == "" || resp.Radius != 1 {
		t.Errorf("metadata %+v", resp)
	}
	// The served reconstruction matches the library exactly (modulo JSON
	// float round-trip, which Go's encoder keeps exact).
	want, err := hammer.RunWithConfig(map[string]float64{"111": 30, "110": 10, "001": 5}, hammer.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range want {
		if math.Abs(resp.Dist[k]-p) > 0 {
			t.Errorf("%s: %v vs %v", k, resp.Dist[k], p)
		}
	}
	var mass float64
	for _, p := range resp.Dist {
		mass += p
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("mass %v", mass)
	}
	// Wrapped {"counts": ...} form.
	if code, _ := postJSON(t, ts.URL+"/v1/reconstruct", `{"counts": `+in+`}`); code != http.StatusOK {
		t.Errorf("wrapped counts rejected: %d", code)
	}
}

func TestServeReconstructErrors(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	for name, body := range map[string]string{
		"garbage":     `[1,2]`,
		"bad key":     `{"0x": 1}`,
		"mixed width": `{"01": 1, "011": 1}`,
		"empty":       `{}`,
		"no mass":     `{"01": 0}`,
		"overflow":    `{"01": 1.7e308, "10": 1.7e308}`,
		"tiny total":  `{"0": 5e-324, "1": 5e-324}`,
	} {
		code, resp := postJSON(t, ts.URL+"/v1/reconstruct", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, code, resp)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" || e.Index != -1 {
			t.Errorf("%s: error body %s", name, resp)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/reconstruct", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/reconstruct = %d", resp.StatusCode)
	}
}

func TestServeBatch(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 4)
	var reqs []string
	for i := 0; i < 6; i++ {
		reqs = append(reqs, fmt.Sprintf(`{"1111": %d, "1110": 7, "0011": 2}`, 20+i))
	}
	code, body := postJSON(t, ts.URL+"/v1/batch", `{"requests": [`+strings.Join(reqs, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(resp.Results), len(reqs))
	}
	// Deterministic ordering: result i must equal the serial reconstruction
	// of request i.
	for i := range reqs {
		want, err := hammer.RunWithConfig(map[string]float64{
			"1111": float64(20 + i), "1110": 7, "0011": 2,
		}, hammer.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range want {
			if resp.Results[i].Dist[k] != p {
				t.Errorf("request %d: %s: %v vs %v", i, k, resp.Results[i].Dist[k], p)
			}
		}
	}
}

func TestServeBatchFailFastIndex(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	code, body := postJSON(t, ts.URL+"/v1/batch",
		`{"requests": [{"01": 3}, {"bad": 1}, {"10": 2}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", code, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Index != 1 || !strings.Contains(e.Error, "request 1") {
		t.Errorf("error = %+v, want index 1", e)
	}
	for name, body := range map[string]string{
		"empty batch": `{"requests": []}`,
		"not a batch": `42`,
		"overflow":    `{"requests": [{"01": 1.7e308, "10": 1.7e308}]}`,
		"tiny total":  `{"requests": [{"0": 5e-324, "1": 5e-324}]}`,
	} {
		if code, _ := postJSON(t, ts.URL+"/v1/batch", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d", name, code)
		}
	}
}

func TestServeConfigPlumbing(t *testing.T) {
	// A pinned engine and radius must show up in the response metadata.
	ts := newTestServer(t, hammer.Config{Engine: "exact", Radius: 2}, 1)
	code, body := postJSON(t, ts.URL+"/v1/reconstruct", `{"11110": 5, "11111": 9, "00000": 3}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp reconstructResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Engine != "exact" || resp.Radius != 2 {
		t.Errorf("metadata %+v", resp)
	}
	// Invalid configurations fail at startup, not per request.
	if _, err := newServer(hammer.Config{Engine: "fpga"}, 1); err == nil {
		t.Error("unknown engine accepted at startup")
	}
	if _, err := newServer(hammer.Config{Weights: "quadratic"}, 1); err == nil {
		t.Error("unknown weight scheme accepted at startup")
	}
}

func TestRunServeHelp(t *testing.T) {
	var stderr bytes.Buffer
	if err := runServe([]string{"-h"}, &bytes.Buffer{}, &stderr); err != nil {
		t.Errorf("serve -h: %v", err)
	}
	if !strings.Contains(stderr.String(), "-addr") {
		t.Error("usage not printed")
	}
	if err := runServe([]string{"extra"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("stray positional accepted")
	}
}

func TestFailedIndex(t *testing.T) {
	if i := failedIndex(&sched.BatchError{Index: 7, Err: fmt.Errorf("boom")}); i != 7 {
		t.Errorf("failedIndex = %d", i)
	}
	// The facade wraps batch errors with its prefix; errors.As must see
	// through the chain.
	wrapped := fmt.Errorf("hammer: %w", &sched.BatchError{Index: 12, Err: fmt.Errorf("boom")})
	if i := failedIndex(wrapped); i != 12 {
		t.Errorf("wrapped failedIndex = %d", i)
	}
	if i := failedIndex(fmt.Errorf("no annotation")); i != -1 {
		t.Errorf("unannotated failedIndex = %d", i)
	}
}

// TestServeReconstructConfigOverride is the per-request override acceptance
// test: one pooled scheduler serves alternating engine/radius/TopM overrides
// and base-config requests without errors, each response matching the library
// under the same effective configuration (sessions are reconfigured in place,
// never errored).
func TestServeReconstructConfigOverride(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 1) // one pooled session serves every config
	hist := `{"11110": 25, "11111": 9, "01110": 6, "00000": 3, "10110": 4}`
	histMap := map[string]float64{"11110": 25, "11111": 9, "01110": 6, "00000": 3, "10110": 4}
	cases := []struct {
		name   string
		config string // JSON override, "" = none
		want   hammer.Config
		engine string
		radius int
	}{
		{"base", ``, hammer.Config{Workers: 1}, "exact", 2},
		{"engine+radius", `{"engine": "bucketed", "radius": 3}`, hammer.Config{Engine: "bucketed", Radius: 3, Workers: 1}, "bucketed", 3},
		{"blocked engine", `{"engine": "blocked"}`, hammer.Config{Engine: "blocked", Workers: 1}, "blocked", 2},
		{"radius only", `{"radius": 1}`, hammer.Config{Radius: 1, Workers: 1}, "exact", 1},
		{"base again", ``, hammer.Config{Workers: 1}, "exact", 2},
		{"topm+weights", `{"topm": 3, "weights": "exp-decay"}`, hammer.Config{TopM: 3, Weights: "exp-decay", Workers: 1}, "exact", 2},
	}
	for _, tc := range cases {
		body := `{"counts": ` + hist + `}`
		if tc.config != "" {
			body = `{"counts": ` + hist + `, "config": ` + tc.config + `}`
		}
		code, resp := postJSON(t, ts.URL+"/v1/reconstruct", body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, code, resp)
		}
		var rr reconstructResponse
		if err := json.Unmarshal(resp, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Engine != tc.engine || rr.Radius != tc.radius {
			t.Errorf("%s: metadata (%s, %d), want (%s, %d)", tc.name, rr.Engine, rr.Radius, tc.engine, tc.radius)
		}
		want, err := hammer.RunWithConfig(histMap, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range want {
			if rr.Dist[k] != p {
				t.Errorf("%s: %s: served %v, library %v", tc.name, k, rr.Dist[k], p)
			}
		}
	}
	// Invalid overrides are a 400, and the pooled session stays healthy.
	for name, config := range map[string]string{
		"unknown engine":  `{"engine": "fpga"}`,
		"streaming-only":  `{"engine": "incremental"}`,
		"bad weights":     `{"weights": "quadratic"}`,
		"negative radius": `{"radius": -2}`,
	} {
		code, resp := postJSON(t, ts.URL+"/v1/reconstruct", `{"counts": `+hist+`, "config": `+config+`}`)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, code, resp)
		}
	}
	if code, _ := postJSON(t, ts.URL+"/v1/reconstruct", hist); code != http.StatusOK {
		t.Error("base request after rejected overrides failed")
	}
}

// TestServeBatchPerRequestConfig: batch members carry their own configs
// through the shared session pool, and a bad member config fails fast with
// its index.
func TestServeBatchPerRequestConfig(t *testing.T) {
	ts := newTestServer(t, hammer.Config{}, 2)
	hist := map[string]float64{"1111": 20, "1110": 7, "0011": 2}
	code, body := postJSON(t, ts.URL+"/v1/batch", `{"requests": [
		{"1111": 20, "1110": 7, "0011": 2},
		{"counts": {"1111": 20, "1110": 7, "0011": 2}, "config": {"engine": "exact", "radius": 3}},
		{"counts": {"1111": 20, "1110": 7, "0011": 2}, "config": {"topm": 2}}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	wants := []hammer.Config{
		{Workers: 1},
		{Engine: "exact", Radius: 3, Workers: 1},
		{TopM: 2, Workers: 1},
	}
	for i, cfg := range wants {
		want, err := hammer.RunWithConfig(hist, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range want {
			if resp.Results[i].Dist[k] != p {
				t.Errorf("request %d: %s: served %v, library %v", i, k, resp.Results[i].Dist[k], p)
			}
		}
	}
	code, body = postJSON(t, ts.URL+"/v1/batch",
		`{"requests": [{"01": 3}, {"counts": {"01": 3}, "config": {"engine": "fpga"}}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad member config: status %d (%s)", code, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Index != 1 {
		t.Errorf("bad member config envelope: %s", body)
	}
}
