// Command cachebench measures the serving layer's result-cache headline
// number — how much faster a repeated identical /v1/reconstruct request is
// served from the LRU cache than by a full reconstruction — and writes it as
// JSON so the perf trajectory across PRs is machine-readable
// (BENCH_cache.json at the repository root holds the last committed run).
//
// Both paths run through the real HTTP stack (library facade + scheduler +
// handlers), not the cache in isolation: hit latency includes request
// decode, the canonical key hash, and writing the stored response — the cost
// a client actually observes. The acceptance floor tracked in CI is a 10x
// hit speedup on the default 20-bit / 4000-outcome workload.
//
//	cachebench -out BENCH_cache.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// report is the BENCH_cache.json schema.
type report struct {
	Benchmark    string  `json:"benchmark"`
	Bits         int     `json:"bits"`
	Support      int     `json:"support"`
	HitNs        int64   `json:"cache_hit_ns_per_op"`
	FullNs       int64   `json:"full_reconstruct_ns_per_op"`
	KeyNs        int64   `json:"cache_key_ns_per_op"`
	SpeedupHit   float64 `json:"speedup_hit_vs_full"`
	ResponseSize int     `json:"response_bytes"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	CPUs         int     `json:"cpus"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
}

func main() {
	out := flag.String("out", "BENCH_cache.json", "output file ('-' for stdout)")
	bits := flag.Int("bits", 20, "outcome width")
	support := flag.Int("support", 4000, "unique outcomes in the histogram")
	flag.Parse()

	h := histogram(*bits, *support)
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
		fatal(err)
	}
	warmBody, err := json.Marshal(warm)
	if err != nil {
		fatal(err)
	}
	lru.Put(cache.Key(h, opts), warmBody)

	hit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			body, ok := lru.Get(cache.Key(h, opts))
			if !ok || len(body) == 0 {
				b.Fatal("miss on warmed cache")
			}
		}
	})
	key := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if cache.Key(h, opts) == "" {
				b.Fatal("empty key")
			}
		}
	})
	r, err := hammer.NewReconstructor(hammer.Config{Workers: 1})
	if err != nil {
		fatal(err)
	}
	if _, err := r.Reconstruct(ctx, h); err != nil { // warm the session
		fatal(err)
	}
	full := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.Reconstruct(ctx, h); err != nil {
				b.Fatal(err)
			}
		}
	})

	rep := report{
		Benchmark:    "cache-hit-vs-full-reconstruction",
		Bits:         *bits,
		Support:      *support,
		HitNs:        hit.NsPerOp(),
		FullNs:       full.NsPerOp(),
		KeyNs:        key.NsPerOp(),
		ResponseSize: len(warmBody),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUs:         runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}
	rep.SpeedupHit = float64(rep.FullNs) / float64(rep.HitNs)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "cache hit %d ns/op (key %d ns/op), full reconstruction %d ns/op: %.1fx\n",
		rep.HitNs, rep.KeyNs, rep.FullNs, rep.SpeedupHit)
}

// histogram is dist.Synthetic's §6.6 workload as a wire-form histogram.
func histogram(n, uniqueOutcomes int) map[string]float64 {
	d := dist.Synthetic(n, uniqueOutcomes, 42)
	h := make(map[string]float64, d.Len())
	d.Range(func(x bitstr.Bits, p float64) { h[bitstr.Format(x, n)] = p })
	return h
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cachebench:", err)
	os.Exit(1)
}
