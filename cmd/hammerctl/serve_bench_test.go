package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// benchHistogramJSON builds dist.Synthetic's §6.6 workload histogram as a
// wire body.
func benchHistogramJSON(tb testing.TB, bits, support int) []byte {
	tb.Helper()
	d := dist.Synthetic(bits, support, 42)
	h := make(map[string]float64, d.Len())
	d.Range(func(x bitstr.Bits, p float64) { h[bitstr.Format(x, bits)] = p })
	body, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// benchReconstruct drives POST /v1/reconstruct through the full handler
// stack (middleware, decode, cache, render) with the recorder as the
// wire.
func benchReconstruct(b *testing.B, cacheEntries int, body []byte, wantHeader string) {
	b.Helper()
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, CacheEntries: cacheEntries})
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.mux()
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/reconstruct", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := do()
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
		if got := rec.Header().Get(cacheHeader); got != wantHeader {
			b.Fatalf("%s = %q, want %q", cacheHeader, got, wantHeader)
		}
	}
}

// BenchmarkCachedReconstruct measures a served cache hit: every timed
// request is the warmed-up repeat of one identical histogram, the
// QAOA-optimizer traffic pattern. Compare against
// BenchmarkUncachedReconstruct for the hit speedup (`microbench -suite
// cache` emits the ratio as BENCH_cache.json; the acceptance floor is 10x).
func BenchmarkCachedReconstruct(b *testing.B) {
	benchReconstruct(b, 64, benchHistogramJSON(b, 20, 4000), cacheHit)
}

// BenchmarkCachedReconstructShuffled is BenchmarkCachedReconstruct with the
// body's members shuffled, so every hit also pays the decoder's sort.
func BenchmarkCachedReconstructShuffled(b *testing.B) {
	benchReconstruct(b, 64, shuffledHistogramJSON(b), cacheHit)
}

// BenchmarkUncachedReconstruct is the same request served with caching
// disabled: a full reconstruction per timed request.
func BenchmarkUncachedReconstruct(b *testing.B) {
	benchReconstruct(b, 0, benchHistogramJSON(b, 20, 4000), "")
}

// benchDecodeKey times what a cache hit does before the lookup: decode the
// body and hash its key.
func benchDecodeKey(b *testing.B, body []byte) {
	opts := core.Options{}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := decodeReconstruct(body)
		if err != nil {
			b.Fatal(err)
		}
		if cache.KeyEntries(rr.entries, rr.width, opts) == "" {
			b.Fatal("empty key")
		}
	}
}

// shuffledHistogramJSON is the 20-bit/4000-outcome bench body with its
// members in random order, so the scanner must sort.
func shuffledHistogramJSON(tb testing.TB) []byte {
	var h map[string]float64
	if err := json.Unmarshal(benchHistogramJSON(tb, 20, 4000), &h); err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		v, _ := json.Marshal(h[k])
		sb.WriteString(`"` + k + `":` + string(v))
	}
	sb.WriteByte('}')
	return []byte(sb.String())
}

// BenchmarkDecodeKey: decode plus cache key of the 20-bit/4000-outcome
// body, members in ascending order (as encoding/json writes maps).
func BenchmarkDecodeKey(b *testing.B) {
	benchDecodeKey(b, benchHistogramJSON(b, 20, 4000))
}

// BenchmarkDecodeKeyShuffled is BenchmarkDecodeKey on the same histogram
// with its members shuffled.
func BenchmarkDecodeKeyShuffled(b *testing.B) {
	benchDecodeKey(b, shuffledHistogramJSON(b))
}

// BenchmarkRenderReconstruct renders the /v1/reconstruct body of a
// 4000-outcome result.
func BenchmarkRenderReconstruct(b *testing.B) {
	rr, err := decodeReconstruct(benchHistogramJSON(b, 20, 4000))
	if err != nil {
		b.Fatal(err)
	}
	d, err := dist.FromEntries(rr.width, rr.entries)
	if err != nil {
		b.Fatal(err)
	}
	res := &core.Result{Out: d, Engine: core.EngineBlocked, Radius: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := renderReconstruct(res); out.err != nil {
			b.Fatal(out.err)
		}
	}
}
