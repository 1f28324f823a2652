package cost

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The committed benchmark reports double as the cost model's regression
// suite: every row is replayed through the fitted model and held to
// MinSelectionAccuracy and MaxChosenSlowdown, the floors cmd/costfit gates
// in CI. If a benchmark regeneration lands numbers the model can no longer
// rank, this suite — not just CI — goes red.

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// loadCommitted loads the committed reports and the model refitted from
// them — exactly the artifact costfit ships.
func loadCommitted(t *testing.T) (*Model, *CoreReport) {
	t.Helper()
	root := repoRoot(t)
	rep, err := LoadCore(filepath.Join(root, "BENCH_core.json"))
	if err != nil {
		t.Fatalf("load committed core benchmark: %v", err)
	}
	samples := CoreSamples(rep)
	if srep, err := LoadStream(filepath.Join(root, "BENCH_stream.json")); err == nil {
		samples = append(samples, StreamSamples(srep)...)
	} else if !os.IsNotExist(err) {
		t.Fatalf("load committed stream benchmark: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("no single-threaded samples in committed benchmarks")
	}
	fitted := Fit(DefaultModel(), samples)
	if err := fitted.Validate(); err != nil {
		t.Fatalf("fitted model invalid: %v", err)
	}
	return fitted, rep
}

// TestCommittedBenchSelection is the validation suite of ISSUE: replay every
// committed BENCH_core.json row, assert the refitted model picks the
// measured-fastest engine on at least the accuracy floor of rows, and that
// no model choice measured worse than the slowdown cap vs the row's winner.
func TestCommittedBenchSelection(t *testing.T) {
	fitted, rep := loadCommitted(t)
	rows, accuracy, worst := EvaluateCore(fitted, rep)
	if len(rows) == 0 {
		t.Fatal("committed benchmark produced no evaluable rows")
	}
	for _, r := range rows {
		if r.Chosen != r.Best {
			t.Logf("MISS support=%d radius=%d: measured-best=%s model-chose=%s (%.2fx)",
				r.Support, r.Radius, r.Best, r.Chosen, r.Slowdown)
		}
	}
	if accuracy < MinSelectionAccuracy {
		t.Errorf("selection accuracy %.0f%% below floor %.0f%% over %d rows",
			100*accuracy, 100*MinSelectionAccuracy, len(rows))
	}
	if worst > MaxChosenSlowdown {
		t.Errorf("worst chosen slowdown %.2fx above cap %.2fx", worst, MaxChosenSlowdown)
	}
}

// TestCommittedBenchDefaultModel pins that the hand-seeded DefaultModel —
// what a process uses before any fit or calibration — also ranks the
// committed rows correctly. Auto-selection must not need a fit step to be
// trustworthy.
func TestCommittedBenchDefaultModel(t *testing.T) {
	rep, err := LoadCore(filepath.Join(repoRoot(t), "BENCH_core.json"))
	if err != nil {
		t.Fatalf("load committed core benchmark: %v", err)
	}
	rows, accuracy, worst := EvaluateCore(DefaultModel(), rep)
	if len(rows) == 0 {
		t.Fatal("no evaluable rows")
	}
	if accuracy < MinSelectionAccuracy {
		t.Errorf("default-model accuracy %.0f%% below floor %.0f%%", 100*accuracy, 100*MinSelectionAccuracy)
	}
	if worst > MaxChosenSlowdown {
		t.Errorf("default-model worst slowdown %.2fx above cap %.2fx", worst, MaxChosenSlowdown)
	}
}

// TestDefaultModelMatchesCommittedFit pins DefaultModel's per-pair
// constants to the fit of the committed reports, to the 0.005 ns costfit
// prints them at: regenerating BENCH_core.json or BENCH_stream.json without
// copying costfit's constants into DefaultModel fails here.
func TestDefaultModelMatchesCommittedFit(t *testing.T) {
	fitted, _ := loadCommitted(t)
	for name, c := range DefaultModel().Engines {
		f := fitted.Engines[name]
		for _, k := range []struct {
			field          string
			def, committed float64
		}{
			{"per_pair_full_ns", c.PerPairFull, f.PerPairFull},
			{"per_candidate_pair_ns", c.PerCand, f.PerCand},
			{"per_admitted_pair_ns", c.PerAdmit, f.PerAdmit},
		} {
			if math.Abs(k.def-k.committed) > 0.005 {
				t.Errorf("%s %s: DefaultModel holds %.4g, the committed reports fit %.4g",
					name, k.field, k.def, k.committed)
			}
		}
	}
}

// TestCommittedBlockedPredictions pins the model to the scan the blocked
// engine actually runs: refitted from the committed benchmark, it predicts
// every committed blocked row — weight-window rows at the default radius and
// block multi-index rows at radii 2-4 alike — within 2x of the measured time.
func TestCommittedBlockedPredictions(t *testing.T) {
	fitted, rep := loadCommitted(t)
	rows := 0
	for _, cfg := range rep.Configs {
		run, ok := cfg.Engines[EngineBlocked]
		if !ok || runWorkers(rep, run) != 1 {
			continue
		}
		rows++
		pred, _ := fitted.Predict(EngineBlocked, Workload{Support: cfg.Support, Bits: rep.Bits, Radius: cfg.Radius})
		if r := pred / float64(run.NsPerOp); r > 2 || r < 0.5 {
			t.Errorf("support=%d radius=%d: predicted %.0f ns, measured %d ns (%.2fx)",
				cfg.Support, cfg.Radius, pred, run.NsPerOp, r)
		}
	}
	if rows == 0 {
		t.Fatal("no single-threaded blocked rows in the committed benchmark")
	}
}

// TestExactBlockedCrossover pins the one decision auto makes — exact or
// blocked — to where it was measured. Every committed core row has blocked
// far ahead, so the crossover is checked against a sweep instead:
// core.CalibrationMeasurer, median of five, supports 8-512 at the shapes
// below, on a 2-vCPU Xeon. Exact measured 1.1-2.9x faster through 48
// outcomes and blocked 2.0-5.1x faster at 192-256, with the crossover at
// 48-128 outcomes. Both the default and the refitted model must pick the
// measured winner on either side of that band.
func TestExactBlockedCrossover(t *testing.T) {
	fitted, _ := loadCommitted(t)
	shapes := []struct{ bits, radius int }{
		{20, 9}, {20, 2}, {20, 3}, {16, 7}, {16, 2}, {12, 5}, {8, 3},
	}
	for _, m := range []*Model{DefaultModel(), fitted} {
		for _, sh := range shapes {
			for _, tc := range []struct {
				support int
				want    string
			}{
				{16, EngineExact}, {32, EngineExact}, {48, EngineExact},
				{192, EngineBlocked}, {256, EngineBlocked},
			} {
				w := Workload{Support: tc.support, Bits: sh.bits, Radius: sh.radius}
				if got, _, _ := m.Choose(w, []string{EngineExact, EngineBlocked}); got != tc.want {
					t.Errorf("%d bits, radius %d, %d outcomes: chose %s, measured winner %s",
						sh.bits, sh.radius, tc.support, got, tc.want)
				}
			}
		}
	}
}

// TestCommittedStreamCrossover pins the streaming claim end to end in the
// model: at the committed BENCH_stream.json workload, the fitted model must
// predict the incremental delta-patch cheaper than any batch engine —
// that prediction is why the stream layer exists.
func TestCommittedStreamCrossover(t *testing.T) {
	srep, err := LoadStream(filepath.Join(repoRoot(t), "BENCH_stream.json"))
	if err != nil {
		if os.IsNotExist(err) {
			t.Skip("no committed stream benchmark")
		}
		t.Fatal(err)
	}
	fitted, _ := loadCommitted(t)
	w := Workload{
		Support: srep.Support,
		Bits:    srep.Bits,
		Radius:  defaultRadius(srep.Bits),
		Delta:   srep.BatchShots,
	}
	inc, ok := fitted.Predict(EngineIncremental, w)
	if !ok {
		t.Fatal("incremental not modeled after stream fit")
	}
	for _, name := range []string{EngineExact, EngineBlocked} {
		batch, ok := fitted.Predict(name, w)
		if !ok {
			t.Fatalf("%s not modeled", name)
		}
		if inc >= batch {
			t.Errorf("model predicts incremental (%.0f ns) no cheaper than %s (%.0f ns) at the committed stream workload",
				inc, name, batch)
		}
	}
}

// TestCoreSamplesSkipsMultiWorker pins the schema normalization contract:
// rows measured with intra-request parallelism are excluded from the fit.
func TestCoreSamplesSkipsMultiWorker(t *testing.T) {
	rep := &CoreReport{
		Bits:    20,
		Workers: 1,
		Configs: []CoreConfig{{
			Support: 1000, Radius: 9,
			Engines: map[string]CoreEngineRun{
				"exact":   {NsPerOp: 100, Workers: 1},
				"blocked": {NsPerOp: 50, Workers: 4}, // multicore run: excluded
			},
		}},
	}
	samples := CoreSamples(rep)
	if len(samples) != 1 || samples[0].Engine != "exact" {
		t.Fatalf("CoreSamples = %+v, want only the single-threaded run", samples)
	}
	// Legacy reports without per-run workers inherit the report-level pin.
	rep.Configs[0].Engines["blocked"] = CoreEngineRun{NsPerOp: 50}
	if samples := CoreSamples(rep); len(samples) != 2 {
		t.Fatalf("legacy fallback produced %d samples, want 2", len(samples))
	}
	// And a report-level multicore pin excludes everything without a per-run
	// override.
	rep.Workers = 8
	rep.Configs[0].Engines["exact"] = CoreEngineRun{NsPerOp: 100}
	if samples := CoreSamples(rep); len(samples) != 0 {
		t.Fatalf("multicore report produced %d samples, want 0", len(samples))
	}
}

// TestEvaluateCoreSkipsThinRows pins that rows with fewer than two
// single-threaded engines cannot vote: a one-engine row has no ranking to
// validate.
func TestEvaluateCoreSkipsThinRows(t *testing.T) {
	rep := &CoreReport{
		Bits:    20,
		Workers: 1,
		Configs: []CoreConfig{{
			Support: 1000, Radius: 9,
			Engines: map[string]CoreEngineRun{"exact": {NsPerOp: 100, Workers: 1}},
		}},
	}
	rows, _, _ := EvaluateCore(DefaultModel(), rep)
	if len(rows) != 0 {
		t.Fatalf("one-engine row evaluated: %+v", rows)
	}
}
