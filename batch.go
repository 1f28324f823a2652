package hammer

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sched"
)

// Reconstructor is the reusable form of RunWithConfig: one validated
// configuration plus the per-request state — scratch vectors, the
// rank-ordered index, per-worker accumulators, the output distribution —
// that one-shot calls rebuild from scratch every time. After the first call
// warms the buffers, repeated reconstructions of similarly sized histograms
// are allocation-free in the core (the string-keyed response map is the only
// remaining per-call allocation).
//
//	r, err := hammer.NewReconstructor(hammer.Config{})
//	for histogram := range requests {
//		fixed, err := r.Reconstruct(ctx, histogram)
//		...
//	}
//
// A Reconstructor is not safe for concurrent use — it is one warm slot.
// Concurrent serving pools Reconstructor-equivalents behind RunBatch or the
// hammerctl serve scheduler instead.
type Reconstructor struct {
	sess *core.Session
}

// NewReconstructor validates the configuration once and returns a reusable
// reconstructor.
func NewReconstructor(cfg Config) (*Reconstructor, error) {
	opts, err := cfg.options()
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(opts)
	if err != nil {
		return nil, fmt.Errorf("hammer: %w", err)
	}
	return &Reconstructor{sess: sess}, nil
}

// Reconstruct applies HAMMER to one histogram, reusing the reconstructor's
// state. The context cancels the parallel scoring scans mid-flight; on
// cancellation the error is ctx.Err() and the reconstructor remains usable.
// Results are identical to RunWithConfig with the same configuration.
func (r *Reconstructor) Reconstruct(ctx context.Context, histogram map[string]float64) (map[string]float64, error) {
	d, _, err := toDist(histogram)
	if err != nil {
		return nil, err
	}
	res, err := r.sess.Reconstruct(ctx, d)
	if err != nil {
		return nil, err
	}
	return dist.ToHistogram(res.Out), nil
}

// SessionOptions maps a Config onto the single-threaded per-request core
// options the serving layers share: the same facade mapping every other path
// uses (weight-scheme names resolved here, everything else validated by
// core), with Workers pinned to 1 — request-level concurrency is the serving
// layers' throughput lever, and per-request fan-out on top of it would
// oversubscribe the host. In-module servers use it to turn per-request
// Config overrides from wire bodies into scheduler/stream options; external
// users work with RunBatch, Reconstructor, and Stream instead (core's types
// live under internal/).
func SessionOptions(cfg Config) (core.Options, error) {
	opts, err := cfg.options()
	if err != nil {
		return core.Options{}, err
	}
	if err := core.ValidateOptions(opts); err != nil {
		return core.Options{}, fmt.Errorf("hammer: %w", err)
	}
	opts.Workers = 1
	return opts, nil
}

// NewScheduler builds the bounded-concurrency scheduler RunBatch runs on:
// cfg maps onto per-request options through SessionOptions (each request
// pinned single-threaded), and workers is the shared request-level budget
// (0 = all CPUs), granted in arrival order. It exists so in-module callers
// embed the scheduler without re-deriving the option mapping.
func NewScheduler(cfg Config, workers int) (*sched.Scheduler, error) {
	opts, err := SessionOptions(cfg)
	if err != nil {
		return nil, err
	}
	s, err := sched.New(sched.Config{Workers: workers, Opts: opts})
	if err != nil {
		return nil, fmt.Errorf("hammer: %w", err)
	}
	return s, nil
}

// RunBatch reconstructs many independent histograms concurrently against one
// bounded worker budget and returns the results in input order. cfg.Workers
// is the number of concurrently executing reconstructions (0 = all CPUs);
// each request runs single-threaded inside its worker slot, the configuration
// that maximizes aggregate throughput (request-level concurrency composes
// badly with per-request fan-out). Per-request sessions come from a pool, so
// large batches reconstruct allocation-free in the core after the first few
// requests warm it.
//
// Results are bit-identical to calling RunWithConfig on each histogram with
// the same (single-worker) configuration. Errors fail fast: the first failure
// cancels every in-flight reconstruction and is returned carrying its request
// index (a wrapped *sched.BatchError).
func RunBatch(ctx context.Context, histograms []map[string]float64, cfg Config) ([]map[string]float64, error) {
	s, err := NewScheduler(cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]float64, len(histograms))
	err = s.Batch(ctx, len(histograms),
		func(i int) (sched.Request, error) {
			d, _, err := dist.FromHistogram(histograms[i])
			return sched.Request{In: d}, err
		},
		func(i int, r *core.Result) error {
			// Formatting copies the session-owned result, in parallel on
			// the worker that produced it; distinct indices are safe.
			out[i] = dist.ToHistogram(r.Out)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("hammer: %w", err)
	}
	return out, nil
}
