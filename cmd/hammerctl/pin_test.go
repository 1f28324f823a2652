package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"testing"

	hammer "repro"
)

// TestResponseBytesPinned pins the SHA-256 of whole /v1/reconstruct and
// /v1/batch response bodies. A result-cache entry is the response body, and
// L2 files and peers written by an earlier build are served as they are, so
// the bodies this build renders must not move by a byte: a change to the
// distribution layer, the engines' scoring epilogue or the render that moves
// one fails here. The reconstruct bodies carry dist.Synthetic(20, 4000, 42)
// as wrapped integer counts, under the default options and three overrides
// (one pins the exact engine); the batch body carries 16 members of
// dist.Synthetic(12, 256, seed) counts, seeds 1 to 16. One worker keeps the
// bytes independent of the host's CPU count.
func TestResponseBytesPinned(t *testing.T) {
	counts := benchCountsJSON(t, 20, 4000, 42)
	batch := []byte(`{"requests": [`)
	for m := range 16 {
		if m > 0 {
			batch = append(batch, ", "...)
		}
		batch = append(batch, benchCountsJSON(t, 12, 256, int64(m+1))...)
	}
	batch = append(batch, "]}"...)
	ts := newTestServer(t, hammer.Config{}, 1)
	for _, tc := range []struct {
		name, path string
		body       []byte
		sum        string
	}{
		{"default radius", "/v1/reconstruct", fmt.Appendf(nil, `{"counts": %s}`, counts), "12699a85746b9f73ee8cdb45cdf3dc2f6b3ca8a7d7d7bd5df302bd79f0a016f9"},
		{"radius 3", "/v1/reconstruct", fmt.Appendf(nil, `{"counts": %s, "config": {"radius": 3}}`, counts), "5416874bf8444553f9912db7559cc387d3a0e7de09e5e20e0c33872aced432eb"},
		{"topm 500", "/v1/reconstruct", fmt.Appendf(nil, `{"counts": %s, "config": {"topm": 500}}`, counts), "d7548717332efa47d36fee3b974e187ae4af9408dda008b1b6c43e9e4a4a6d3f"},
		{"exact radius 2", "/v1/reconstruct", fmt.Appendf(nil, `{"counts": %s, "config": {"engine": "exact", "radius": 2}}`, counts), "abe6cbb0dc86d684e55afd60eb7677f525df7b429961c54f310bba3b155aa0fa"},
		{"batch", "/v1/batch", batch, "99821eec7d11fffab941bae03ac68204730c556cb2051282b3de685de803ac26"},
	} {
		code, body := postJSON(t, ts.URL+tc.path, string(tc.body))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, code, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("%s: body SHA-256 %s, pinned %s (%d bytes)", tc.name, got, tc.sum, len(body))
		}
	}
}
