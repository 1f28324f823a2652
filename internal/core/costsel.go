package core

import (
	"context"
	"time"

	"repro/internal/cost"
	"repro/internal/dist"
)

// This file is the bridge between the engine table and the cost model: auto
// selection asks the active model which batch engine predicts
// cheapest for the workload (costsel — the selection half), and the serving
// layers ask for a runtime prediction of the engine a request will resolve
// to (PredictCost — the admission half). Explicit engine pins never consult
// the model for selection; only for prediction.

// autoCandidates are the engines auto-selection chooses between, in a fixed
// order so cost ties resolve deterministically.
var autoCandidates = []string{EngineExact, EngineBlocked}

// chooseAuto resolves the auto policy for a workload: the active cost
// model's cheaper prediction of exact and blocked, or blocked when the model
// covers neither (a stripped-down model installed via cost.SetActive must
// degrade, not break).
func chooseAuto(w cost.Workload) string {
	if name, _, ok := cost.Active().Choose(w, autoCandidates); ok {
		return name
	}
	return EngineBlocked
}

// PredictCost predicts, without running anything, which engine a request
// with the given options will resolve to on a histogram of the given
// support and width, and how long the reconstruction is expected to take.
// It mirrors the resolution the session will perform — pinned names predict
// themselves, auto predicts the model's choice — so admission control and
// queue ordering budget exactly the work that will run. ok is false when
// the active model does not cover the engine (the scheduler then serves the
// request without a budget rather than guessing).
func PredictCost(opts Options, support, bits int) (engine string, predicted time.Duration, ok bool) {
	if support <= 0 || bits <= 0 || opts.Radius < 0 {
		return "", 0, false
	}
	w := cost.Workload{
		Support: support,
		Bits:    bits,
		Radius:  opts.radius(bits),
		TopM:    opts.TopM,
	}
	name := opts.Engine
	if r, err := lookupBatch(name); err == nil {
		name = r.Name // the engine name behind a pin, "" for auto
	}
	if name == "" {
		name = chooseAuto(w)
	}
	d, modeled := cost.Active().PredictDuration(name, w)
	if !modeled {
		return name, 0, false
	}
	return name, d, true
}

// PredictShardCost mirrors PredictCost for a stripe-sharded run fanned over
// `stripes` replicas: stripes always run the blocked engine (the only engine
// with a fused pass to stripe), and the prediction is the active model's
// PredictShardedDuration — per-stripe setup, wire transfer of the full
// support to every replica, the pair-balanced share of the triangular scan,
// and one merge fold per tree level. ok is false when the request cannot
// shard at all (DisableFilter scatters credits across stripe boundaries; an
// explicit exact pin asks for the unfused reference loop) or when the model
// does not cover the engine. The serve layer shards exactly when both
// predictions exist and the sharded one is cheaper.
func PredictShardCost(opts Options, support, bits, stripes int) (predicted time.Duration, ok bool) {
	if support <= 0 || bits <= 0 || stripes <= 0 || opts.Radius < 0 {
		return 0, false
	}
	if opts.DisableFilter || opts.Engine == EngineExact {
		return 0, false
	}
	w := cost.Workload{Support: support, Bits: bits, Radius: opts.radius(bits), TopM: opts.TopM}
	return cost.Active().PredictShardedDuration(EngineBlocked, w, stripes)
}

// Calibrate measures this process's batch engines on synthetic
// workloads, refits the cost model's constants from the live samples, and
// installs the refined model for every subsequent auto selection and
// prediction. Call it at serving startup (hammerctl serve -calibrate) or on
// demand; the pass takes well under a second per engine. The refined model
// is returned so callers can log or persist the constants.
func Calibrate(ctx context.Context) (*cost.Model, error) {
	m, err := cost.Calibrate(ctx, CalibrationMeasurer(), cost.Active(), cost.CalibrationConfig{})
	if err != nil {
		return nil, err
	}
	cost.SetActive(m)
	return m, nil
}

// CalibrationMeasurer returns the canonical cost.Measurer: it times warmed
// Session reconstructions of a synthetic Hamming-clustered histogram (the
// §6.6 workload shape the benchmarks use) with single-threaded scoring, the
// configuration whose cost the model predicts.
func CalibrationMeasurer() cost.Measurer { return calibrationMeasurer{} }

type calibrationMeasurer struct{}

func (calibrationMeasurer) Measure(ctx context.Context, engine string, support, bits, radius int) (float64, error) {
	in := dist.Synthetic(bits, support, 42)
	sess, err := NewSession(Options{Engine: engine, Radius: radius, Workers: 1})
	if err != nil {
		return 0, err
	}
	// One warm-up reconstruction grows the scratch to its high-water mark so
	// the timed iterations measure the steady state the model predicts, not
	// first-call allocation.
	if _, err := sess.Reconstruct(ctx, in); err != nil {
		return 0, err
	}
	const (
		minElapsed = 10 * time.Millisecond
		maxIters   = 256
	)
	start := time.Now()
	iters := 0
	for iters < maxIters && (iters == 0 || time.Since(start) < minElapsed) {
		if _, err := sess.Reconstruct(ctx, in); err != nil {
			return 0, err
		}
		iters++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}
