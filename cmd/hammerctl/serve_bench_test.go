package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
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
// wire, request i sending bodies[i%len(bodies)] after one warm-up request
// of the first.
func benchReconstruct(b *testing.B, cacheEntries int, bodies [][]byte, wantHeader string) {
	b.Helper()
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, CacheEntries: cacheEntries})
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.mux()
	do := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/reconstruct", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(bodies[0]); rec.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := do(bodies[i%len(bodies)])
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
	benchReconstruct(b, 64, [][]byte{benchHistogramJSON(b, 20, 4000)}, cacheHit)
}

// BenchmarkCachedReconstructCounts is a served cache hit of the serving
// benchmark's repeat traffic: one body of 20-bit/4000-outcome integer
// counts, sent again byte for byte.
func BenchmarkCachedReconstructCounts(b *testing.B) {
	benchReconstruct(b, 64, [][]byte{benchCountsJSON(b, 20, 4000, 42)}, cacheHit)
}

// BenchmarkCachedReconstructShuffled is BenchmarkCachedReconstruct with the
// body's members shuffled, so every hit also pays the decoder's sort.
func BenchmarkCachedReconstructShuffled(b *testing.B) {
	benchReconstruct(b, 64, [][]byte{shuffledHistogramJSON(b)}, cacheHit)
}

// BenchmarkUncachedReconstruct is the same request served with caching
// disabled: a full reconstruction per timed request.
func BenchmarkUncachedReconstruct(b *testing.B) {
	benchReconstruct(b, 0, [][]byte{benchHistogramJSON(b, 20, 4000)}, "")
}

// BenchmarkUncachedReconstructTight is the serving benchmark's tight request
// through the full handler with caching disabled: 20-bit/4000-outcome
// integer counts wrapped with {"radius": 3}, which blocked serves with its
// block multi-index. It cycles 256 distinct bodies, as tight does: eight
// dist.Synthetic histograms, each sent with its heaviest outcome's count
// raised by 0 to 31 shots.
func BenchmarkUncachedReconstructTight(b *testing.B) {
	var bodies [][]byte
	for seed := range int64(8) {
		d := dist.Synthetic(20, 4000, seed+1)
		key := d.MostProbable()
		for vary := range 32 {
			body, sep := []byte(`{"counts": {`), ""
			d.Range(func(x bitstr.Bits, p float64) {
				k := int64(math.Round(p * 1e5))
				if x == key {
					k += int64(vary)
				}
				body = bitstr.AppendFormat(append(body, sep+`"`...), x, 20)
				body = strconv.AppendInt(append(body, `": `...), k, 10)
				sep = ", "
			})
			bodies = append(bodies, append(body, `}, "config": {"radius": 3}}`...))
		}
	}
	benchReconstruct(b, 0, bodies, "")
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

// benchCountsJSON is the §6.6 workload histogram of the given seed as
// integer shot counts, in the serving benchmark's shape: the key outcome
// about 5000 shots, its neighbours 1000-2000, the tail 10-20, members in
// ascending order.
func benchCountsJSON(tb testing.TB, bits, support int, seed int64) []byte {
	tb.Helper()
	d := dist.Synthetic(bits, support, seed)
	h := make(map[string]int, d.Len())
	d.Range(func(x bitstr.Bits, p float64) { h[bitstr.Format(x, bits)] = int(math.Round(p * 1e5)) })
	body, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkStreamIngestSnapshot is the serving benchmark's stream traffic
// through the full handler stack: a 20-bit session seeded with
// dist.Synthetic(20, 2000, 42) as integer counts (a key outcome, its
// single-bit flips and a uniform tail), then per op one plain ingest and one
// ?snapshot=1 ingest, each of 64 shots sampled from the seed. Each snapshot
// walks the outcomes both ingests changed, as the stream workload's do.
func BenchmarkStreamIngestSnapshot(b *testing.B) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.mux()
	post := func(path string, body []byte, want int) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != want {
			b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	const ingest = "/v1/stream/bench/shots"
	post("/v1/stream", []byte(`{"width": 20, "id": "bench"}`), http.StatusCreated)
	seed := benchCountsJSON(b, 20, 2000, 42)
	post(ingest+"?snapshot=1", fmt.Appendf(nil, `{"counts": %s}`, seed), http.StatusOK)
	bodies := sampledIngests(b, seed, 256, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		post(ingest, bodies[2*i%len(bodies)], http.StatusOK)
		post(ingest+"?snapshot=1", bodies[(2*i+1)%len(bodies)], http.StatusOK)
	}
}

// BenchmarkDecodeKeyWrapped: decode plus cache key of tight's body, 20-bit/
// 4000-outcome integer counts wrapped as {"counts": ..., "config":
// {"radius": 3}}, beside the same counts bare.
func BenchmarkDecodeKeyWrapped(b *testing.B) {
	counts := benchCountsJSON(b, 20, 4000, 42)
	b.Run("bare", func(b *testing.B) { benchDecodeKey(b, counts) })
	wrapped := fmt.Appendf(nil, `{"counts": %s, "config": {"radius": 3}}`, counts)
	b.Run("wrapped", func(b *testing.B) { benchDecodeKey(b, wrapped) })
}

// BenchmarkDecodeBatch decodes the batch workload's envelope: 16 members,
// each a 12-bit/256-outcome histogram of integer counts.
func BenchmarkDecodeBatch(b *testing.B) {
	var body []byte
	body = append(body, `{"requests": [`...)
	for m := range 16 {
		if m > 0 {
			body = append(body, ", "...)
		}
		body = append(body, benchCountsJSON(b, 12, 256, 42)...)
	}
	body = append(body, "]}"...)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for range b.N {
		members, err := decodeBatch(body)
		if err != nil || members[15].err != nil {
			b.Fatal(err)
		}
	}
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

// sampledIngests draws k stream ingest bodies of shots shots each from a
// counts histogram, a fixed rand seed choosing each shot with probability
// proportional to its outcome's count.
func sampledIngests(tb testing.TB, counts []byte, k, shots int) [][]byte {
	tb.Helper()
	var h map[string]int
	if err := json.Unmarshal(counts, &h); err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 0, len(h))
	for key := range h {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	cum := make([]int, len(keys))
	total := 0
	for i, key := range keys {
		total += h[key]
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(7))
	bodies := make([][]byte, k)
	for b := range bodies {
		batch := map[string]int{}
		for range shots {
			i, _ := slices.BinarySearch(cum, 1+rng.Intn(total))
			batch[keys[i]]++
		}
		body, err := json.Marshal(map[string]any{"counts": batch})
		if err != nil {
			tb.Fatal(err)
		}
		bodies[b] = body
	}
	return bodies
}
