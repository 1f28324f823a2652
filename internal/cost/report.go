package cost

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file declares the schema of the committed benchmark reports that
// cmd/microbench writes — BENCH_core.json (CoreReport) and BENCH_stream.json
// (StreamReport) — reads and writes them, and turns their rows into fit
// samples and ranking evaluations. The committed trajectory is both the
// model's training data and its regression suite: the validation tests
// replay every row and assert the model would have picked the engine that
// actually measured fastest.

// The selection-quality gate on EvaluateCore's two numbers, enforced by
// cmd/costfit on freshly measured reports and by the validation suite on the
// committed ones.
const (
	MinSelectionAccuracy = 0.9
	MaxChosenSlowdown    = 1.3
)

// Host is the producing machine every BENCH_*.json report ends with.
type Host struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// GOMAXPROCS is the producing host's scheduler width; zero in reports
	// written before the field existed.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// CoreEngineRun is one engine's measurement in a BENCH_core.json row.
type CoreEngineRun struct {
	NsPerOp   int64   `json:"ns_per_op"`
	NsPerPair float64 `json:"ns_per_pair"`
	// Workers is the intra-request parallelism the run was pinned to. The
	// schema normalization keeps it per run (not only as a top-level note)
	// so cross-host comparisons and the CI gate can verify they compare
	// single-threaded numbers with single-threaded numbers.
	Workers int `json:"workers"`
	// GOMAXPROCS and CPUs record the producing host's scheduler width per
	// run: a Workers=1 pin rules out intra-request fan-out, but the runtime
	// (GC, sibling benchmarks) still differs between a 1-CPU container and a
	// 32-way CI agent, and cross-report comparisons need to see that. Zero
	// in reports written before the fields existed.
	GOMAXPROCS int `json:"gomaxprocs"`
	CPUs       int `json:"cpus"`
}

// CoreConfig is one (support, radius) workload row. Pairs is the unordered
// distinct-pair count N·(N−1)/2 — the work the O(N²) pass is quadratic in —
// and the per-engine ns_per_pair figures divide wall time by it.
type CoreConfig struct {
	Support        int                      `json:"support"`
	Radius         int                      `json:"radius"`
	DefaultRadius  bool                     `json:"default_radius"`
	Pairs          int64                    `json:"pairs"`
	Engines        map[string]CoreEngineRun `json:"engines"`
	BlockedVsExact float64                  `json:"speedup_blocked_vs_exact"`
}

// CoreGate is a row CI enforces: blocked over exact at the acceptance
// workload must meet the committed floor. Workers is the pin of the gated
// runs; the CI gate refuses to compare speedups unless it is 1, because a
// report produced with per-request fan-out would gate scheduler luck, not the
// hot loop.
type CoreGate struct {
	Support    int     `json:"support"`
	Radius     int     `json:"radius"`
	Workers    int     `json:"workers"`
	MinSpeedup float64 `json:"min_speedup_blocked_vs_exact"`
	Speedup    float64 `json:"speedup_blocked_vs_exact"`
}

// CoreReport is the BENCH_core.json schema.
type CoreReport struct {
	Benchmark string       `json:"benchmark"`
	Bits      int          `json:"bits"`
	Workers   int          `json:"workers"`
	Note      string       `json:"note"`
	Configs   []CoreConfig `json:"configs"`
	Gates     []CoreGate   `json:"gates"`
	Host
}

// StreamReport is the BENCH_stream.json schema. The ns figures cover one
// small-batch ingest plus one snapshot over the accumulated stream.
type StreamReport struct {
	Benchmark          string  `json:"benchmark"`
	Bits               int     `json:"bits"`
	Support            int     `json:"support"`
	BatchShots         int     `json:"batch_shots"`
	IncrementalNsPerOp int64   `json:"incremental_ns_per_op"`
	BatchNsPerOp       int64   `json:"batch_ns_per_op"`
	Speedup            float64 `json:"speedup"`
	Host
}

// LoadCore parses a BENCH_core.json file.
func LoadCore(path string) (*CoreReport, error) {
	rep := new(CoreReport)
	if err := loadJSON(path, rep); err != nil {
		return nil, err
	}
	if len(rep.Configs) == 0 {
		return nil, fmt.Errorf("cost: %s has no workload rows", path)
	}
	return rep, nil
}

// LoadStream parses a BENCH_stream.json file.
func LoadStream(path string) (*StreamReport, error) {
	rep := new(StreamReport)
	if err := loadJSON(path, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("cost: parse %s: %w", path, err)
	}
	return nil
}

// WriteJSON writes v as a report file: indented JSON at path, or on stdout
// when path is "-".
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// runWorkers resolves one run's worker pin, falling back to the report-level
// field for reports written before the per-run schema normalization.
func runWorkers(rep *CoreReport, run CoreEngineRun) int {
	if run.Workers != 0 {
		return run.Workers
	}
	return rep.Workers
}

// CoreSamples converts a core report into fit samples. Only single-threaded
// runs qualify: the model predicts the one-slot cost the scheduler budgets
// by, and mixing multicore numbers in would fold scheduler luck into the
// constants (exactly the cross-host disagreement the per-run workers field
// exists to rule out).
func CoreSamples(rep *CoreReport) []Sample {
	var samples []Sample
	for _, cfg := range rep.Configs {
		for engine, run := range cfg.Engines {
			if runWorkers(rep, run) != 1 {
				continue
			}
			samples = append(samples, Sample{
				Engine: engine,
				W: Workload{
					Support: cfg.Support,
					Bits:    rep.Bits,
					Radius:  cfg.Radius,
				},
				NsPerOp: float64(run.NsPerOp),
			})
		}
	}
	return samples
}

// StreamSamples converts a stream report into an incremental-engine fit
// sample. A batch of k shots dirties at most k outcomes, so the committed
// batch size bounds the snapshot's delta.
func StreamSamples(rep *StreamReport) []Sample {
	if rep.IncrementalNsPerOp <= 0 || rep.Support <= 0 {
		return nil
	}
	return []Sample{{
		Engine: EngineIncremental,
		W: Workload{
			Support: rep.Support,
			Bits:    rep.Bits,
			Radius:  defaultRadius(rep.Bits),
			Delta:   rep.BatchShots,
		},
		NsPerOp: float64(rep.IncrementalNsPerOp),
	}}
}

// defaultRadius mirrors the paper's strict d < n/2 admission rule (the same
// rule core.DefaultRadius implements; duplicated here because cost must stay
// import-free of core).
func defaultRadius(n int) int {
	if n <= 1 {
		return 0
	}
	if n%2 == 0 {
		return n/2 - 1
	}
	return n / 2
}

// RowEval is the model's verdict on one benchmark row: which engine measured
// fastest, which the model would choose, and how much slower the choice
// measured than the best (1.0 = the model chose the measured winner).
type RowEval struct {
	Support  int
	Radius   int
	Best     string
	Chosen   string
	Slowdown float64
}

// EvaluateCore replays every single-threaded row of a core report through
// the model's Choose and scores the selections: accuracy is the fraction of
// rows where predicted-fastest matches measured-fastest, and maxSlowdown the
// worst measured penalty of a model choice across all rows. These two
// numbers are the selection-quality gate CI and the validation suite
// enforce.
func EvaluateCore(m *Model, rep *CoreReport) (rows []RowEval, accuracy, maxSlowdown float64) {
	var correct int
	maxSlowdown = 1
	for _, cfg := range rep.Configs {
		var names []string
		for engine, run := range cfg.Engines {
			if runWorkers(rep, run) == 1 {
				names = append(names, engine)
			}
		}
		if len(names) < 2 {
			continue
		}
		sortStrings(names)
		best := names[0]
		for _, n := range names[1:] {
			if cfg.Engines[n].NsPerOp < cfg.Engines[best].NsPerOp {
				best = n
			}
		}
		w := Workload{Support: cfg.Support, Bits: rep.Bits, Radius: cfg.Radius}
		chosen, _, ok := m.Choose(w, names)
		if !ok {
			chosen = ""
		}
		row := RowEval{Support: cfg.Support, Radius: cfg.Radius, Best: best, Chosen: chosen}
		if chosen == best {
			correct++
			row.Slowdown = 1
		} else if chosen != "" {
			row.Slowdown = float64(cfg.Engines[chosen].NsPerOp) / float64(cfg.Engines[best].NsPerOp)
		} else {
			row.Slowdown = 0 // nothing modeled: surfaced as accuracy loss
		}
		if row.Slowdown > maxSlowdown {
			maxSlowdown = row.Slowdown
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, 0, 0
	}
	return rows, float64(correct) / float64(len(rows)), maxSlowdown
}
