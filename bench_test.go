package hammer

// Root benchmark harness: one testing.B benchmark per paper table/figure
// (regenerating the experiment end to end in quick mode), plus scaling
// benchmarks for HAMMER's O(N²) core matching the §6.6 complexity analysis.
// Run with:
//
//	go test -bench=. -benchmem
//
// DESIGN.md §4 maps each benchmark to the modules it exercises.

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
)

func benchCfg() experiments.Config { return experiments.QuickConfig() }

func BenchmarkFig1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1a(benchCfg())
	}
}

func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig1b(benchCfg())
	}
}

func BenchmarkFig2d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2d(benchCfg())
	}
}

func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3b(benchCfg())
	}
}

func BenchmarkFig3c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3c(benchCfg())
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(benchCfg())
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(benchCfg())
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(benchCfg())
	}
}

func BenchmarkFig9ThreeReg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(benchCfg(), "3reg")
	}
}

func BenchmarkFig9Grid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(benchCfg(), "grid")
	}
}

func BenchmarkFig10a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10a(benchCfg())
	}
}

func BenchmarkFig10b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10b(benchCfg())
	}
}

func BenchmarkFig11Low(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(benchCfg(), false)
	}
}

func BenchmarkFig11High(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(benchCfg(), true)
	}
}

func BenchmarkFig12(b *testing.B) {
	// Fig 12 shares the EHD sweep with Fig 1(b).
	for i := 0; i < b.N; i++ {
		experiments.Fig1b(benchCfg())
	}
}

func BenchmarkGHZStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.GHZStudy(benchCfg())
	}
}

func BenchmarkIBMQAOA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.IBMQAOA(benchCfg())
	}
}

func BenchmarkTable3Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(benchCfg())
	}
}

// BenchmarkReconstruct compares the scoring engines head to head on a wide
// (20-bit), low-support (2000 unique outcomes) histogram, at the paper's
// default radius, where blocked runs its weight-window scan, and at the
// tight radius 3, where it runs its block multi-index scan.
func BenchmarkReconstruct(b *testing.B) {
	d := dist.Synthetic(20, 2000, 42)
	for _, engine := range []string{core.EngineExact, core.EngineBlocked} {
		for _, radius := range []int{0, 3} {
			label := fmt.Sprintf("%d", radius)
			if radius == 0 {
				label = fmt.Sprintf("default(%d)", core.DefaultRadius(20))
			}
			name := fmt.Sprintf("engine=%s/radius=%s", engine, label)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.Reconstruct(d, core.Options{Engine: engine, Radius: radius})
				}
			})
		}
	}
}

// syntheticCounts is dist.Synthetic in the raw integer-count form the
// streaming facade ingests.
func syntheticCounts(n, uniqueOutcomes int, seed int64) map[string]int {
	counts := make(map[string]int, uniqueOutcomes)
	dist.Synthetic(n, uniqueOutcomes, seed).Range(func(x bitstr.Bits, p float64) {
		k := int(p * 1e6)
		if k < 1 {
			k = 1
		}
		counts[bitstr.Format(x, n)] = k
	})
	return counts
}

// BenchmarkStreamSnapshot pins the streaming layer's acceptance bar through
// the public facade: on a 20-bit / 2000-outcome accumulated stream, a
// snapshot taken after a small batch of fresh shots must be measurably
// cheaper when served from the incremental engine state than by recomputing
// the whole histogram from scratch (the batch pipeline RunCounts runs).
// `microbench -suite stream` emits the same comparison as BENCH_stream.json
// for the machine-readable perf trajectory.
func BenchmarkStreamSnapshot(b *testing.B) {
	base := syntheticCounts(20, 2000, 42)
	outcomes := make([]string, 0, len(base))
	for k := range base {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)

	b.Run("incremental", func(b *testing.B) {
		s, err := NewStream(20, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.IngestCounts(base); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Snapshot(); err != nil { // settle the initial full pass
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < streamBenchBatch; j++ {
				if err := s.Ingest(outcomes[(i*streamBenchBatch+j)%len(outcomes)]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		acc := make(map[string]int, len(base))
		for k, v := range base {
			acc[k] = v
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < streamBenchBatch; j++ {
				acc[outcomes[(i*streamBenchBatch+j)%len(outcomes)]]++
			}
			if _, err := RunCounts(acc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// streamBenchBatch is the per-snapshot shot batch of BenchmarkStreamSnapshot:
// small against the 2000-outcome support, the regime where incremental
// revalidation pays off.
const streamBenchBatch = 64

// BenchmarkSessionReuse pins the request-oriented core's headline property:
// a warmed-up session reconstructing the 20-bit/2000-outcome workload must
// report ~0 allocs/op (the one-shot path rebuilds its index, accumulator
// matrix, and output distribution every call). Run with -benchmem.
func BenchmarkSessionReuse(b *testing.B) {
	d := dist.Synthetic(20, 2000, 42)
	for _, engine := range []string{core.EngineExact, core.EngineBlocked} {
		opts := core.Options{Engine: engine, Workers: 1}
		b.Run("session/engine="+engine, func(b *testing.B) {
			sess, err := core.NewSession(opts)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := sess.Reconstruct(ctx, d); err != nil { // warm up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Reconstruct(ctx, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("oneshot/engine="+engine, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Reconstruct(d, opts)
			}
		})
	}
}

// batchHistograms builds B distinct wire-form histograms of the §6.6
// workload shape, each over its own cluster key.
func batchHistograms(n, uniqueOutcomes, count int) []map[string]float64 {
	hs := make([]map[string]float64, count)
	for i := range hs {
		h := make(map[string]float64, uniqueOutcomes)
		dist.Synthetic(n, uniqueOutcomes, int64(42+i)).Range(func(x bitstr.Bits, p float64) {
			h[bitstr.Format(x, n)] = p
		})
		hs[i] = h
	}
	return hs
}

// BenchmarkBatch compares RunBatch at 8 workers against the serial Run loop
// it replaces, on a batch of 20-bit/2000-outcome histograms — the scheduler
// acceptance workload. `microbench -suite batch` emits the same comparison
// as BENCH_batch.json for the machine-readable perf trajectory.
func BenchmarkBatch(b *testing.B) {
	const batchSize = 16
	hs := batchHistograms(20, 2000, batchSize)
	b.Run("serial-run-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				if _, err := Run(h); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("runbatch-8workers", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunBatch(ctx, hs, Config{Workers: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHammerScaling measures the O(N²) reconstruction across unique-
// outcome counts (Table 3's independent variable). The paper reports 56 s
// for ~20K outcomes in single-threaded Python; the Go engine covers the same
// N in well under a second per op on a multicore host.
func BenchmarkHammerScaling(b *testing.B) {
	for _, N := range []int{512, 2048, 8192, 20000} {
		d := dist.Synthetic(24, N, 42)
		b.Run(fmt.Sprintf("N=%d", N), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Run(d)
			}
		})
	}
}

// BenchmarkHammerWorkers isolates the parallel-scaling of the scoring loop.
func BenchmarkHammerWorkers(b *testing.B) {
	d := dist.Synthetic(20, 4096, 7)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Reconstruct(d, core.Options{Workers: w})
			}
		})
	}
}

// BenchmarkHammerWeightSchemes measures the ablation variants' cost.
func BenchmarkHammerWeightSchemes(b *testing.B) {
	d := dist.Synthetic(16, 2048, 9)
	for _, scheme := range []core.WeightScheme{core.InverseCHS, core.UniformWeight, core.ExpDecay} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Reconstruct(d, core.Options{Weights: scheme})
			}
		})
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Ablation(benchCfg())
	}
}

func BenchmarkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Comparison(benchCfg())
	}
}

func BenchmarkZNEStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ZNEStudy(benchCfg())
	}
}

func BenchmarkQVStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.QVStudy(benchCfg())
	}
}

func BenchmarkInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Inference(benchCfg())
	}
}

func BenchmarkCalibrationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.CalibrationStudy(benchCfg())
	}
}

func BenchmarkIterated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Iterated(benchCfg())
	}
}
