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
// dist.Synthetic(12, 256, seed) counts, seeds 1 to 16. The stream rows are
// the ?snapshot=1 acks of one 20-bit session: dist.Synthetic(20, 2000, 42)
// as integer counts, whose snapshot rebuilds every row, then three 128-shot
// ingests sampled from those counts, whose snapshots walk only the changed
// outcomes and patch their neighbours. One worker keeps the bytes
// independent of the host's CPU count.
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
	if code, body := postJSON(t, ts.URL+"/v1/stream", `{"width": 20, "id": "pin"}`); code != http.StatusCreated {
		t.Fatalf("stream create: status %d: %s", code, body)
	}
	seed := benchCountsJSON(t, 20, 2000, 42)
	shots := sampledIngests(t, seed, 3, 128)
	const ingest = "/v1/stream/pin/shots?snapshot=1"
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
		{"stream full", ingest, fmt.Appendf(nil, `{"counts": %s}`, seed), "357e14c050265838934517212d51b131127e1aa6fbfa43f08847dda3e8808e8e"},
		{"stream partial 1", ingest, shots[0], "f8c159fc707ad8266810d7e9095c9a8b8d00bcf0128d20eb2e7dce599d98cc0a"},
		{"stream partial 2", ingest, shots[1], "a155e2f74497ce0516faf971a22f50fe271f255d31d7d4f8f780f940cd7d6a7f"},
		{"stream partial 3", ingest, shots[2], "ea93925dc4d8dd5d2507461dfcf9040ed8be0e82c54a49854e65e522d5786ab4"},
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
