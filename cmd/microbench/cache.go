package main

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	hammer "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cost"
)

// The cache suite measures the serving layer's result-cache headline number —
// how much faster a repeated identical reconstruction is served from the LRU
// cache than by a full reconstruction — as BENCH_cache.json. The acceptance
// floor tracked in CI is a 10x hit speedup on this 20-bit / 4000-outcome
// workload.
const cacheSupport = 4000

// cacheReport is the BENCH_cache.json schema.
type cacheReport struct {
	Benchmark    string  `json:"benchmark"`
	Bits         int     `json:"bits"`
	Support      int     `json:"support"`
	HitNs        int64   `json:"cache_hit_ns_per_op"`
	FullNs       int64   `json:"full_reconstruct_ns_per_op"`
	KeyNs        int64   `json:"cache_key_ns_per_op"`
	SpeedupHit   float64 `json:"speedup_hit_vs_full"`
	ResponseSize int     `json:"response_bytes"`
	cost.Host
}

func runCache() (any, error) {
	h := histogram(cacheSupport, 42)
	ctx := context.Background()

	// The cached path: one warm entry, every iteration a hit. The reconstructor
	// facade plus an LRU over rendered responses is exactly the serving path's
	// shape (decode is excluded on both sides here, so the ratio isolates
	// cache-vs-reconstruction; the HTTP-level ratio is pinned separately by
	// BenchmarkCachedReconstruct in cmd/hammerctl).
	opts := core.Options{Workers: 1}
	lru := cache.New[[]byte](64)
	warm, err := hammer.RunWithConfig(h, hammer.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	warmBody, err := json.Marshal(warm)
	if err != nil {
		return nil, err
	}
	lru.Put(cache.Key(h, opts), warmBody)

	var t timer
	hit := t.measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			body, ok := lru.Get(cache.Key(h, opts))
			if !ok || len(body) == 0 {
				return errors.New("miss on warmed cache")
			}
		}
		return nil
	}).NsPerOp()
	key := t.measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if cache.Key(h, opts) == "" {
				return errors.New("empty key")
			}
		}
		return nil
	}).NsPerOp()
	r, err := hammer.NewReconstructor(hammer.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	if _, err := r.Reconstruct(ctx, h); err != nil { // warm the session
		return nil, err
	}
	full := t.measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := r.Reconstruct(ctx, h); err != nil {
				return err
			}
		}
		return nil
	}).NsPerOp()
	return &cacheReport{
		Benchmark:    "cache-hit-vs-full-reconstruction",
		Bits:         bits,
		Support:      cacheSupport,
		HitNs:        hit,
		FullNs:       full,
		KeyNs:        key,
		SpeedupHit:   float64(full) / float64(hit),
		ResponseSize: len(warmBody),
		Host:         host(),
	}, t.err
}
