package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
)

// The core suite measures the single-node scoring hot path — ns per
// unordered outcome pair for each batch engine (exact, blocked) — as
// BENCH_core.json, the rows internal/cost fits its per-pair constants from.
//
// Every engine runs single-threaded (Workers=1): the dev and CI hosts are
// 1-CPU, so the committed numbers — and the CI speedup gates riding on them —
// pin the per-pair cost of the hot loop itself rather than scheduler luck.
// The pin is written into the report at every level (top, per engine run,
// gate) so downstream consumers can check it instead of assuming it. The
// gates sit on the blocked engine's acceptance workload, 20-bit /
// 4000-support.
const (
	coreWorkers     = 1
	coreGateSupport = 4000
)

// coreFloors are the committed blocked-vs-exact speedup floors at the gate
// support, by radius (0 = the paper's default, the weight-window scan; 3 =
// the block multi-index scan). The default-radius floor is the retired
// blocked-vs-bucketed floor of 2x times bucketed's committed 2.15x over
// exact; the radius-3 floor is two thirds of the 16.3x the multi-index scan
// measured when it landed (median of four runs).
var coreFloors = map[int]float64{0: 4.3, 3: 10.9}

func runCore() (any, error) {
	rep := &cost.CoreReport{
		Benchmark: "core-engine-ns-per-pair",
		Bits:      bits,
		Workers:   coreWorkers,
		Note: "single-threaded ns per unordered outcome pair; the dev and CI hosts are 1-CPU, " +
			"so the committed gate pins the single-thread hot path, not parallel scaling",
		Host: host(),
	}
	var t timer
	for _, support := range []int{2000, coreGateSupport} {
		d := dist.Synthetic(bits, support, 42)
		pairs := int64(support) * int64(support-1) / 2
		for _, radius := range []int{0, 2, 3, 4} { // 0 selects the paper's default radius
			cfg := cost.CoreConfig{
				Support:       support,
				Radius:        radius,
				DefaultRadius: radius == 0,
				Pairs:         pairs,
				Engines:       make(map[string]cost.CoreEngineRun, 2),
			}
			if radius == 0 {
				cfg.Radius = core.DefaultRadius(bits)
			}
			for _, engine := range []string{core.EngineExact, core.EngineBlocked} {
				opts := core.Options{Engine: engine, Radius: radius, Workers: coreWorkers}
				ns := t.measure(func(b *testing.B) error {
					for i := 0; i < b.N; i++ {
						core.Reconstruct(d, opts)
					}
					return nil
				}).NsPerOp()
				cfg.Engines[engine] = cost.CoreEngineRun{
					NsPerOp:    ns,
					NsPerPair:  float64(ns) / float64(pairs),
					Workers:    coreWorkers,
					GOMAXPROCS: runtime.GOMAXPROCS(0),
					CPUs:       runtime.NumCPU(),
				}
				fmt.Fprintf(os.Stderr, "support=%d radius=%d engine=%s: %d ns/op (%.3f ns/pair)\n",
					support, cfg.Radius, engine, ns, float64(ns)/float64(pairs))
			}
			cfg.BlockedVsExact = float64(cfg.Engines[core.EngineExact].NsPerOp) /
				float64(cfg.Engines[core.EngineBlocked].NsPerOp)
			rep.Configs = append(rep.Configs, cfg)
			if f, gated := coreFloors[radius]; gated && support == coreGateSupport {
				rep.Gates = append(rep.Gates, cost.CoreGate{
					Support:    support,
					Radius:     cfg.Radius,
					Workers:    coreWorkers,
					MinSpeedup: f,
					Speedup:    cfg.BlockedVsExact,
				})
			}
		}
	}
	return rep, t.err
}
