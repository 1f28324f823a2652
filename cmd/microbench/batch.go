package main

import (
	"context"
	"testing"

	hammer "repro"
	"repro/internal/cost"
)

// The batch suite measures the batch scheduler's headline numbers — the
// throughput of RunBatch over a bounded worker budget versus the serial Run
// loop it replaces — as BENCH_batch.json.
//
// Two baselines are reported. serial_ns_per_op is a plain `for { Run(h) }`
// loop with the default configuration, whose per-call intra-request
// parallelism is GOMAXPROCS — on a single-core host this coincides with the
// single-threaded loop, on a multicore host it is the strongest serial
// competitor. serial_1worker_ns_per_op pins Workers=1, isolating the
// scheduling win at fixed per-request work. The headline speedup is measured
// against the plain serial loop.
const (
	batchSupport = 2000 // unique outcomes per histogram
	batchSize    = 16   // histograms per RunBatch call
	batchWorkers = 8    // RunBatch worker budget
)

// batchReport is the BENCH_batch.json schema. The ns_per_op figures are
// per-histogram: total batch wall time divided by batch size.
type batchReport struct {
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
	cost.Host
}

func runBatch() (any, error) {
	hs := make([]map[string]float64, batchSize)
	for c := range hs { // each around its own cluster key
		hs[c] = histogram(batchSupport, int64(42+c))
	}
	ctx := context.Background()
	var t timer
	batched := t.measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := hammer.RunBatch(ctx, hs, hammer.Config{Workers: batchWorkers}); err != nil {
				return err
			}
		}
		return nil
	})
	serialLoop := func(cfg hammer.Config) testing.BenchmarkResult {
		return t.measure(func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				for _, h := range hs {
					if _, err := hammer.RunWithConfig(h, cfg); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	serial := serialLoop(hammer.Config{}) // hammer.Run's configuration
	serial1w := serialLoop(hammer.Config{Workers: 1})
	sessionAllocs := t.measure(func(b *testing.B) error {
		r, err := hammer.NewReconstructor(hammer.Config{Workers: 1})
		if err != nil {
			return err
		}
		if _, err := r.Reconstruct(ctx, hs[0]); err != nil { // warm up
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Reconstruct(ctx, hs[0]); err != nil {
				return err
			}
		}
		return nil
	})

	perOp := func(r testing.BenchmarkResult) int64 { return r.NsPerOp() / int64(len(hs)) }
	rep := &batchReport{
		Benchmark:  "runbatch-vs-serial-run-loop",
		Bits:       bits,
		Support:    batchSupport,
		BatchSize:  batchSize,
		Workers:    batchWorkers,
		BatchNs:    perOp(batched),
		SerialNs:   perOp(serial),
		Serial1WNs: perOp(serial1w),
		// The reconstructor still allocates the response map per call; the
		// core is allocation-free, so this stays O(support), not O(work).
		ReconstructorAllocs: sessionAllocs.AllocsPerOp(),
		Host:                host(),
	}
	rep.Speedup = float64(rep.SerialNs) / float64(rep.BatchNs)
	rep.SpeedupVs1W = float64(rep.Serial1WNs) / float64(rep.BatchNs)
	return rep, t.err
}
