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
	"repro/internal/dist"
)

// The cache suite measures the serving layer's result-cache headline number —
// how much faster a repeated identical reconstruction is served from the LRU
// cache than by a full reconstruction — as BENCH_cache.json. The acceptance
// floor tracked in CI is a 10x hit speedup on this 20-bit / 4000-outcome
// workload. The two rows are measured in turn, three times each, and each
// is the median of its runs (timer.medians).
const cacheSupport = 4000

// cacheReport is the BENCH_cache.json schema.
type cacheReport struct {
	Benchmark    string  `json:"benchmark"`
	Bits         int     `json:"bits"`
	Support      int     `json:"support"`
	HitNs        int64   `json:"cache_hit_ns_per_op"`
	FullNs       int64   `json:"full_reconstruct_ns_per_op"`
	SpeedupHit   float64 `json:"speedup_hit_vs_full"`
	ResponseSize int     `json:"response_bytes"`
	cost.Host
}

func runCache() (any, error) {
	h := histogram(cacheSupport, 42)
	ctx := context.Background()

	// The cached path: one warm entry, every iteration a hit. The histogram
	// is decoded once, outside the timed loops, as the server decodes a
	// request body; a hit is the canonical key over the decoded entries plus
	// the LRU get. That is what a hit pays when its body is not a
	// byte-identical repeat (those find their key from a SHA-256 of the body
	// instead; BenchmarkCachedReconstructCounts in cmd/hammerctl times one
	// through the handler).
	body, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	var decoded dist.Histogram
	if err := json.Unmarshal(body, &decoded); err != nil {
		return nil, err
	}
	es, n, err := decoded.Entries()
	if err != nil {
		return nil, err
	}
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
	lru.Put(cache.KeyEntries(es, n, opts), warmBody)

	r, err := hammer.NewReconstructor(hammer.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	if _, err := r.Reconstruct(ctx, h); err != nil { // warm the session
		return nil, err
	}
	var t timer
	rs := t.medians(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			body, ok := lru.Get(cache.KeyEntries(es, n, opts))
			if !ok || len(body) == 0 {
				return errors.New("miss on warmed cache")
			}
		}
		return nil
	}, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := r.Reconstruct(ctx, h); err != nil {
				return err
			}
		}
		return nil
	})
	hit, full := rs[0].NsPerOp(), rs[1].NsPerOp()
	return &cacheReport{
		Benchmark:    "cache-hit-vs-full-reconstruction",
		Bits:         bits,
		Support:      cacheSupport,
		HitNs:        hit,
		FullNs:       full,
		SpeedupHit:   float64(full) / float64(hit),
		ResponseSize: len(warmBody),
		Host:         host(),
	}, t.err
}
