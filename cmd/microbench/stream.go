package main

import (
	"maps"
	"testing"

	hammer "repro"
	"repro/internal/bitstr"
	"repro/internal/cost"
	"repro/internal/dist"
)

// The stream suite measures the streaming layer's headline numbers — the
// cost of a snapshot after a small shot batch, served incrementally versus
// recomputed from scratch by the batch pipeline — as BENCH_stream.json.
const (
	streamSupport = 2000 // unique outcomes in the accumulated stream
	streamBatch   = 64   // shots per ingest-then-snapshot cycle
)

func runStream() (any, error) {
	// dist.Synthetic's §6.6 workload as integer counts, plus the outcome list
	// the per-cycle shots draw from.
	d := dist.Synthetic(bits, streamSupport, 42)
	base := make(map[string]int, d.Len())
	outcomes := make([]string, 0, d.Len())
	d.Range(func(x bitstr.Bits, p float64) {
		s := bitstr.Format(x, bits)
		base[s] = max(int(p*1e6), 1)
		outcomes = append(outcomes, s)
	})
	var t timer
	incremental := t.measure(func(b *testing.B) error {
		s, err := hammer.NewStream(bits, hammer.Config{})
		if err != nil {
			return err
		}
		if err := s.IngestCounts(base); err != nil {
			return err
		}
		if _, err := s.Snapshot(); err != nil { // settle the initial full pass
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < streamBatch; j++ {
				if err := s.Ingest(outcomes[(i*streamBatch+j)%len(outcomes)]); err != nil {
					return err
				}
			}
			if _, err := s.Snapshot(); err != nil {
				return err
			}
		}
		return nil
	}).NsPerOp()
	full := t.measure(func(b *testing.B) error {
		acc := maps.Clone(base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < streamBatch; j++ {
				acc[outcomes[(i*streamBatch+j)%len(outcomes)]]++
			}
			if _, err := hammer.RunCounts(acc); err != nil {
				return err
			}
		}
		return nil
	}).NsPerOp()
	return &cost.StreamReport{
		Benchmark:          "stream-snapshot-after-batch",
		Bits:               bits,
		Support:            streamSupport,
		BatchShots:         streamBatch,
		IncrementalNsPerOp: incremental,
		BatchNsPerOp:       full,
		Speedup:            float64(full) / float64(incremental),
		Host:               host(),
	}, t.err
}
