// Command batchbench measures the batch scheduler's headline numbers — the
// throughput of RunBatch over a bounded worker budget versus the serial Run
// loop it replaces — and writes them as JSON so the perf trajectory across
// PRs is machine-readable (BENCH_batch.json at the repository root holds the
// last committed run).
//
// Two baselines are reported. serial_ns_per_op is a plain `for { Run(h) }`
// loop with the default configuration, whose per-call intra-request
// parallelism is GOMAXPROCS — on a single-core host this coincides with the
// single-threaded loop, on a multicore host it is the strongest serial
// competitor. serial_1worker_ns_per_op pins Workers=1, isolating the
// scheduling win at fixed per-request work. The headline speedup is measured
// against the plain serial loop.
//
//	batchbench -out BENCH_batch.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"

	hammer "repro"
)

// report is the BENCH_batch.json schema. The ns_per_op figures are
// per-histogram: total batch wall time divided by batch size.
type report struct {
	Benchmark           string  `json:"benchmark"`
	Bits                int     `json:"bits"`
	Support             int     `json:"support"`
	BatchSize           int     `json:"batch_size"`
	Workers             int     `json:"workers"`
	BatchNs             int64   `json:"batch_ns_per_op"`
	SerialNs            int64   `json:"serial_ns_per_op"`
	Serial1WNs          int64   `json:"serial_1worker_ns_per_op"`
	Speedup             float64 `json:"speedup"`
	SpeedupVs1W         float64 `json:"speedup_vs_1worker"`
	ReconstructorAllocs int64   `json:"reconstructor_allocs_per_op"`
	GOOS                string  `json:"goos"`
	GOARCH              string  `json:"goarch"`
	CPUs                int     `json:"cpus"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
}

func main() {
	out := flag.String("out", "BENCH_batch.json", "output file ('-' for stdout)")
	bits := flag.Int("bits", 20, "outcome width")
	support := flag.Int("support", 2000, "unique outcomes per histogram")
	batch := flag.Int("batch", 16, "histograms per RunBatch call")
	workers := flag.Int("workers", 8, "RunBatch worker budget")
	flag.Parse()

	hs := histograms(*bits, *support, *batch)
	ctx := context.Background()

	batched := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hammer.RunBatch(ctx, hs, hammer.Config{Workers: *workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
	serial := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				if _, err := hammer.Run(h); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	serial1w := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				if _, err := hammer.RunWithConfig(h, hammer.Config{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	sessionAllocs := testing.Benchmark(func(b *testing.B) {
		r, err := hammer.NewReconstructor(hammer.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Reconstruct(ctx, hs[0]); err != nil { // warm up
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Reconstruct(ctx, hs[0]); err != nil {
				b.Fatal(err)
			}
		}
	})

	perOp := func(r testing.BenchmarkResult) int64 { return r.NsPerOp() / int64(len(hs)) }
	rep := report{
		Benchmark:  "runbatch-vs-serial-run-loop",
		Bits:       *bits,
		Support:    *support,
		BatchSize:  *batch,
		Workers:    *workers,
		BatchNs:    perOp(batched),
		SerialNs:   perOp(serial),
		Serial1WNs: perOp(serial1w),
		// The reconstructor still allocates the response map per call; the
		// core is allocation-free, so this stays O(support), not O(work).
		ReconstructorAllocs: batchAllocs(sessionAllocs),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		CPUs:                runtime.NumCPU(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
	}
	rep.Speedup = float64(rep.SerialNs) / float64(rep.BatchNs)
	rep.SpeedupVs1W = float64(rep.Serial1WNs) / float64(rep.BatchNs)

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
	fmt.Fprintf(os.Stderr, "batch %d ns/op, serial %d ns/op (%.2fx; %.2fx vs 1-worker serial), %d CPUs\n",
		rep.BatchNs, rep.SerialNs, rep.Speedup, rep.SpeedupVs1W, rep.CPUs)
}

func batchAllocs(r testing.BenchmarkResult) int64 {
	return r.AllocsPerOp()
}

// histograms builds `count` distinct wire-form histograms of dist.Synthetic's
// §6.6 workload, each around its own cluster key.
func histograms(n, uniqueOutcomes, count int) []map[string]float64 {
	hs := make([]map[string]float64, count)
	for c := range hs {
		d := dist.Synthetic(n, uniqueOutcomes, int64(42+c))
		h := make(map[string]float64, d.Len())
		d.Range(func(x bitstr.Bits, p float64) {
			h[bitstr.Format(x, n)] = p
		})
		hs[c] = h
	}
	return hs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "batchbench:", err)
	os.Exit(1)
}
