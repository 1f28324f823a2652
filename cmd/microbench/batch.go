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
// competitor — and which builds a fresh session per call, as Run does.
// serial_1worker_ns_per_op loops over one warm Workers=1 Reconstructor, the
// session each RunBatch worker keeps, isolating the scheduling win at fixed
// per-request work. The headline speedup is measured against the plain
// serial loop.
//
// The three timed rows are measured in turn, three times each, and each is
// the median of its runs (timer.medians): on a shared host the same loop
// can read several times slower from one second to the next, so rows timed
// one after another can put a ratio past the host's core count.
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
	warm, err := hammer.NewReconstructor(hammer.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	serialLoop := func(run func(h map[string]float64) error) func(b *testing.B) error {
		return func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				for _, h := range hs {
					if err := run(h); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	rs := t.medians(
		func(b *testing.B) error {
			for i := 0; i < b.N; i++ {
				if _, err := hammer.RunBatch(ctx, hs, hammer.Config{Workers: batchWorkers}); err != nil {
					return err
				}
			}
			return nil
		},
		serialLoop(func(h map[string]float64) error { // hammer.Run: a fresh session per call
			_, err := hammer.RunWithConfig(h, hammer.Config{})
			return err
		}),
		serialLoop(func(h map[string]float64) error {
			_, err := warm.Reconstruct(ctx, h)
			return err
		}))
	batched, serial, serial1w := rs[0], rs[1], rs[2]
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
