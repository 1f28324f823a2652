// Command corebench measures the single-node scoring hot path — ns per
// unordered outcome pair for each batch engine (exact, blocked) — and writes
// the comparison as JSON so the perf trajectory across PRs is
// machine-readable (BENCH_core.json at the repository root holds the last
// committed run).
//
// Every engine runs single-threaded (Workers=1): the dev and CI hosts are
// 1-CPU, so the committed numbers — and the CI speedup gates riding on them —
// pin the per-pair cost of the hot loop itself rather than scheduler luck.
// The gates sit on the blocked engine's acceptance workload, 20-bit /
// 4000-support, where blocked must hold its committed speedup floor over the
// exact reference twice: at the paper's default radius (the weight-window
// scan) and at radius 3 (the block multi-index scan).
//
//	corebench -out BENCH_core.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// engineRun is one engine's measurement on one workload config. Workers is
// recorded per run — not only as a top-level note — so consumers comparing
// ns/pair across reports (the CI speedup gate, the cost-model fit) can
// verify they compare single-threaded numbers with single-threaded numbers
// regardless of how many CPUs the producing host had.
type engineRun struct {
	NsPerOp   int64   `json:"ns_per_op"`
	NsPerPair float64 `json:"ns_per_pair"`
	Workers   int     `json:"workers"`
	// GOMAXPROCS and CPUs record the producing host's scheduler width per
	// run: a Workers=1 pin rules out intra-request fan-out, but the runtime
	// (GC, sibling benchmarks) still differs between a 1-CPU container and a
	// 32-way CI agent, and cross-report comparisons need to see that.
	GOMAXPROCS int `json:"gomaxprocs"`
	CPUs       int `json:"cpus"`
}

// config is one (support, radius) workload row. Pairs is the unordered
// distinct-pair count N·(N−1)/2 — the work the O(N²) pass is quadratic in —
// and the per-engine ns_per_pair figures divide wall time by it.
type config struct {
	Support       int                  `json:"support"`
	Radius        int                  `json:"radius"`
	DefaultRadius bool                 `json:"default_radius"`
	Pairs         int64                `json:"pairs"`
	Engines       map[string]engineRun `json:"engines"`
	// BlockedVsExact is the speedup of the blocked engine over exact on this
	// row.
	BlockedVsExact float64 `json:"speedup_blocked_vs_exact"`
}

// gate is a row CI enforces: blocked over exact at the acceptance workload
// must meet the committed floor.
type gate struct {
	Support int `json:"support"`
	Radius  int `json:"radius"`
	// Workers is the worker pin of the gated runs. The CI gate reads it and
	// refuses to compare speedups unless it is 1: a report produced with
	// per-request fan-out would gate scheduler luck, not the hot loop, and
	// single-CPU dev containers and multicore CI agents would disagree
	// about what the numbers mean.
	Workers    int     `json:"workers"`
	MinSpeedup float64 `json:"min_speedup_blocked_vs_exact"`
	Speedup    float64 `json:"speedup_blocked_vs_exact"`
}

// report is the BENCH_core.json schema.
type report struct {
	Benchmark  string   `json:"benchmark"`
	Bits       int      `json:"bits"`
	Workers    int      `json:"workers"`
	Note       string   `json:"note"`
	Configs    []config `json:"configs"`
	Gates      []gate   `json:"gates"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
}

// benchWorkers pins every measured run single-threaded; it is written into
// the report at every level (top, per engine run, gate) so downstream
// consumers can check the pin instead of assuming it.
const benchWorkers = 1

// floors are the committed blocked-vs-exact speedup floors at the gate
// support, by radius (0 = the paper's default, the weight-window scan; 3 =
// the block multi-index scan). The default-radius floor is the retired
// blocked-vs-bucketed floor of 2x times bucketed's committed 2.15x over
// exact; the radius-3 floor is two thirds of the 16.3x the multi-index scan
// measured when it landed (median of four runs).
var floors = map[int]float64{0: 4.3, 3: 10.9}

func main() {
	out := flag.String("out", "BENCH_core.json", "output file ('-' for stdout)")
	bits := flag.Int("bits", 20, "outcome width")
	flag.Parse()

	engines := []string{core.EngineExact, core.EngineBlocked}
	supports := []int{2000, 4000}
	radii := []int{0, 2, 3, 4} // 0 selects the paper's default radius

	rep := report{
		Benchmark: "core-engine-ns-per-pair",
		Bits:      *bits,
		Workers:   benchWorkers,
		Note: "single-threaded ns per unordered outcome pair; the dev and CI hosts are 1-CPU, " +
			"so the committed gate pins the single-thread hot path, not parallel scaling",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, support := range supports {
		d := dist.Synthetic(*bits, support, 42)
		pairs := int64(support) * int64(support-1) / 2
		for _, radius := range radii {
			cfg := config{
				Support:       support,
				Radius:        radius,
				DefaultRadius: radius == 0,
				Pairs:         pairs,
				Engines:       make(map[string]engineRun, len(engines)),
			}
			if radius == 0 {
				cfg.Radius = core.DefaultRadius(*bits)
			}
			for _, engine := range engines {
				opts := core.Options{Engine: engine, Radius: radius, Workers: benchWorkers}
				res := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						core.Reconstruct(d, opts)
					}
				})
				ns := res.NsPerOp()
				cfg.Engines[engine] = engineRun{
					NsPerOp:    ns,
					NsPerPair:  float64(ns) / float64(pairs),
					Workers:    benchWorkers,
					GOMAXPROCS: runtime.GOMAXPROCS(0),
					CPUs:       runtime.NumCPU(),
				}
				fmt.Fprintf(os.Stderr, "support=%d radius=%d engine=%s: %d ns/op (%.3f ns/pair)\n",
					support, cfg.Radius, engine, ns, float64(ns)/float64(pairs))
			}
			cfg.BlockedVsExact = float64(cfg.Engines[core.EngineExact].NsPerOp) /
				float64(cfg.Engines[core.EngineBlocked].NsPerOp)
			rep.Configs = append(rep.Configs, cfg)

			if f, gated := floors[radius]; gated && support == 4000 {
				rep.Gates = append(rep.Gates, gate{
					Support:    support,
					Radius:     cfg.Radius,
					Workers:    benchWorkers,
					MinSpeedup: f,
					Speedup:    cfg.BlockedVsExact,
				})
			}
		}
	}

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
	for _, g := range rep.Gates {
		fmt.Fprintf(os.Stderr, "gate: blocked %.2fx over exact at %d-bit/%d-support radius %d (floor %.2fx), %d CPUs\n",
			g.Speedup, rep.Bits, g.Support, g.Radius, g.MinSpeedup, rep.CPUs)
		if g.Speedup < g.MinSpeedup {
			fatal(fmt.Errorf("radius %d speedup %.2fx below committed floor %.2fx", g.Radius, g.Speedup, g.MinSpeedup))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corebench:", err)
	os.Exit(1)
}
