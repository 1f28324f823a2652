package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// Config configures a Scheduler.
type Config struct {
	// Workers bounds the number of concurrently executing reconstructions
	// (0 = GOMAXPROCS). It is the scheduler's one shared budget: concurrent
	// Reconstruct calls and Batch members all draw from it.
	Workers int

	// Opts are the per-request reconstruction options. Opts.Workers is the
	// intra-request parallelism and defaults to 1 here (not GOMAXPROCS):
	// the scheduler's throughput comes from running requests concurrently,
	// and oversubscribing cores with per-request fan-out on top of
	// request-level concurrency slows both down. Set it explicitly to trade
	// request latency for throughput.
	Opts core.Options

	// Policy selects how a freed worker slot is assigned among waiting
	// requests: PolicyFIFO (the default, also selected by "") in arrival
	// order, PolicySPJF by shortest model-predicted runtime. Deadline
	// admission (Request.Deadline) works under either policy.
	Policy string
}

// Metrics is the scheduler's optional instrumentation. Any field may be nil
// (obs instruments are nil-safe); a nil *Metrics disables instrumentation
// entirely, including the clock reads.
type Metrics struct {
	// QueueDepth gauges requests currently waiting for a worker slot.
	QueueDepth *obs.Gauge
	// InFlight gauges requests currently holding a worker slot.
	InFlight *obs.Gauge
	// WaitSeconds observes the time from a request's arrival to its slot
	// acquisition — the queueing delay a larger -workers would shrink.
	WaitSeconds *obs.Histogram
	// RunSeconds observes the time a request holds its slot — the work
	// itself, the signal for capacity planning.
	RunSeconds *obs.Histogram

	// PredictedSeconds and ActualSeconds observe, labeled by engine, the
	// cost model's runtime prediction for a served request and the runtime
	// it then measured. Their divergence per engine is the model's live
	// accuracy — the number a calibration pass should move toward 1.
	PredictedSeconds *obs.HistogramVec
	ActualSeconds    *obs.HistogramVec
	// ErrorRatio observes actual/predicted per engine. A well-calibrated
	// model concentrates mass around 1; sustained drift says recalibrate.
	ErrorRatio *obs.HistogramVec
	// DeadlineRejected counts deadline admission rejections, labeled by
	// reason: "infeasible" (predicted runtime alone exceeds the remaining
	// time) or "overloaded" (no slot freed by deadline−predicted).
	DeadlineRejected *obs.CounterVec
}

// Scheduler runs reconstructions against one bounded worker budget with
// pooled per-request sessions. It is safe for concurrent use.
type Scheduler struct {
	opts    core.Options
	policy  string
	slots   semaphore
	pool    sync.Pool
	metrics *Metrics
}

// Instrument attaches the metrics set the one slot path (DoBudgeted, under
// Reconstruct, Batch members and Do) reports through. Call it after New and
// before the scheduler starts serving; it is not synchronized against
// in-flight requests.
func (s *Scheduler) Instrument(m *Metrics) { s.metrics = m }

// New validates the configuration and returns a ready scheduler.
func New(cfg Config) (*Scheduler, error) {
	opts := cfg.Opts
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	// Validate once, up front: pool refills construct sessions from the
	// same options and cannot fail afterwards.
	if _, err := core.NewSession(opts); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if err := validatePolicy(cfg.Policy); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	policy := cfg.Policy
	if policy == "" {
		policy = PolicyFIFO
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var slots semaphore
	if policy == PolicySPJF {
		slots = newSPJF(workers)
	} else {
		slots = make(fifoSem, workers)
	}
	s := &Scheduler{opts: opts, policy: policy, slots: slots}
	s.pool.New = func() any {
		sess, err := core.NewSession(opts)
		if err != nil {
			// Unreachable: opts were validated above and are immutable.
			panic(err)
		}
		return sess
	}
	return s, nil
}

// Workers returns the size of the shared worker budget.
func (s *Scheduler) Workers() int { return s.slots.capacity() }

// Policy returns the queue-ordering policy in effect.
func (s *Scheduler) Policy() string { return s.policy }

// Options returns the default per-request reconstruction options.
func (s *Scheduler) Options() core.Options { return s.opts }

// acquire waits for a worker slot (or ctx); predNs ranks the wait under
// PolicySPJF (pass predUnknown for work without a prediction). The returned
// timestamp is when the slot was taken — release uses it to observe the run
// latency — and is zero when uninstrumented, keeping the clock off the hot
// path.
func (s *Scheduler) acquire(ctx context.Context, predNs int64) (time.Time, error) {
	m := s.metrics
	if m == nil {
		return time.Time{}, s.slots.acquire(ctx, predNs)
	}
	m.QueueDepth.Inc()
	arrived := time.Now()
	if err := s.slots.acquire(ctx, predNs); err != nil {
		m.QueueDepth.Dec()
		return time.Time{}, err
	}
	taken := time.Now()
	m.QueueDepth.Dec()
	m.WaitSeconds.Observe(taken.Sub(arrived).Seconds())
	m.InFlight.Inc()
	return taken, nil
}

func (s *Scheduler) release(taken time.Time) {
	s.slots.release()
	if m := s.metrics; m != nil {
		m.InFlight.Dec()
		m.RunSeconds.Observe(time.Since(taken).Seconds())
	}
}

// Do runs fn inside one slot of the shared worker budget: DoBudgeted with no
// prediction and no deadline. It exists for work that is
// reconstruction-shaped but not a pooled-session request — a streaming
// session's snapshot, for instance — so long-lived sessions and one-shot
// requests cannot together oversubscribe the host: everything CPU-bound the
// server does drains from the same slots.
func (s *Scheduler) Do(ctx context.Context, fn func() error) error {
	return s.DoBudgeted(ctx, "", 0, time.Time{}, func(context.Context) error { return fn() })
}

// DoBudgeted runs fn inside one worker slot with deadline admission. It is
// the scheduler's one slot path: Reconstruct (and so every Batch member) and
// Do take their slots here, and so do callers that predicted the cost of
// their own reconstruction-shaped work — a shard coordinator's fan-out, a
// replica's stripe scan. A positive predicted duration ranks the slot wait
// under PolicySPJF and drives admission against the deadline:
// predicted-infeasible work is rejected before taking a slot (infeasible
// *DeadlineError, with engine as its label), and feasible work waits for a
// slot only until deadline−predicted before being rejected as overloaded.
// Zero predicted means unpredicted work (no admission, deadline-bounded slot
// wait only); a zero deadline disables admission entirely. fn receives a
// context bounded by the deadline; when the deadline runs out during fn, the
// returned error says so and wraps context.DeadlineExceeded.
func (s *Scheduler) DoBudgeted(ctx context.Context, engine string, predicted time.Duration, deadline time.Time, fn func(ctx context.Context) error) error {
	predNs := int64(predUnknown)
	predOK := predicted > 0
	if predOK {
		predNs = int64(predicted)
	}
	actx := ctx // context bounding the slot wait
	if !deadline.IsZero() {
		startBy := deadline
		if predOK {
			remaining := time.Until(deadline)
			if predicted >= remaining {
				s.countDeadline("infeasible")
				return &DeadlineError{Engine: engine, Predicted: predicted, Remaining: remaining, Infeasible: true}
			}
			startBy = deadline.Add(-predicted)
		}
		var cancel context.CancelFunc
		actx, cancel = context.WithDeadline(ctx, startBy)
		defer cancel()
	}
	taken, err := s.acquire(actx, predNs)
	if err != nil {
		// Distinguish "the admission window closed" from the caller's own
		// context dying: only the former is a deadline rejection.
		if !deadline.IsZero() && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			s.countDeadline("overloaded")
			return &DeadlineError{Engine: engine, Predicted: predicted, Remaining: time.Until(deadline)}
		}
		return err
	}
	defer s.release(taken)
	rctx := ctx // the run itself may use the full time up to the deadline
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		rctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	err = fn(rctx)
	if !deadline.IsZero() && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("sched: the deadline ran out during the reconstruction: %w", err)
	}
	return err
}

// Request is one unit of scheduler work: the input distribution plus optional
// per-request option overrides. A nil Opts serves the request with the
// scheduler's default options; a non-nil Opts is served by reconfiguring the
// pooled session in place when it is not already compatible (warm scratch
// buffers are kept either way — see core.Session.CompatibleWith). Opts.Workers
// is ignored: intra-request parallelism stays the scheduler's own setting, or
// per-request fan-out could multiply against request-level concurrency.
type Request struct {
	In   *dist.Dist
	Opts *core.Options

	// Deadline, when non-zero, is the absolute time by which the request's
	// reconstruction must have finished, whether it is served alone or as
	// a Batch member. Admission control compares it against the cost
	// model's runtime prediction: a request whose predicted run alone
	// exceeds the remaining time is rejected immediately with an
	// infeasible *DeadlineError, and a feasible one waits for a slot only
	// until deadline−predicted — the last instant it could still start and
	// finish in time — before being rejected as overloaded. Rejections
	// happen while the request is queued, so they never consume or leak a
	// worker slot. An admitted run that outlasts the deadline is canceled
	// and fails with an error wrapping context.DeadlineExceeded. Requests
	// the model cannot predict fall back to plain context-deadline
	// behavior.
	Deadline time.Time
}

// effective resolves a request's options against the scheduler defaults.
func (s *Scheduler) effective(opts *core.Options) core.Options {
	if opts == nil {
		return s.opts
	}
	eff := *opts
	eff.Workers = s.opts.Workers
	return eff
}

// predict runs the cost model against a request, returning the engine the
// request will resolve to and its predicted runtime (ok=false when the
// model has no coverage or the input is empty — the request then runs
// unbudgeted).
func (s *Scheduler) predict(req Request) (engine string, d time.Duration, ok bool) {
	if req.In == nil || req.In.Len() == 0 {
		return "", 0, false
	}
	return core.PredictCost(s.effective(req.Opts), req.In.Len(), req.In.NumBits())
}

// Reconstruct serves one request: it predicts the runtime, applies deadline
// admission (see Request.Deadline), waits for a worker slot (ranked by the
// prediction under PolicySPJF), draws a session from the pool (reconfigured
// in place if the request overrides the default options), reconstructs, and
// hands the result to consume before the session returns to the pool. The
// result is session-owned — consume must copy anything it keeps (formatting
// into a response inside consume is the intended shape). Invalid
// per-request options surface as the request's error; the session stays
// poolable either way (Reconfigure leaves it unchanged on error).
func (s *Scheduler) Reconstruct(ctx context.Context, req Request, consume func(*core.Result) error) error {
	engine, predicted, predOK := s.predict(req)
	if !predOK {
		predicted = 0 // DoBudgeted treats non-positive as unpredicted
	}
	return s.DoBudgeted(ctx, engine, predicted, req.Deadline, func(rctx context.Context) error {
		sess := s.pool.Get().(*core.Session)
		defer s.pool.Put(sess)
		if eff := s.effective(req.Opts); !sess.CompatibleWith(eff) {
			if err := sess.Reconfigure(eff); err != nil {
				return err
			}
		}
		start := time.Now()
		res, err := sess.Reconstruct(rctx, req.In)
		if err != nil {
			return err
		}
		if m := s.metrics; m != nil && predOK {
			actual := time.Since(start).Seconds()
			// Label by the engine that actually ran; PredictCost mirrors the
			// session's resolution, so it matches the predicted engine.
			m.PredictedSeconds.Observe(predicted.Seconds(), res.Engine)
			m.ActualSeconds.Observe(actual, res.Engine)
			if p := predicted.Seconds(); p > 0 {
				m.ErrorRatio.Observe(actual/p, res.Engine)
			}
		}
		return consume(res)
	})
}

func (s *Scheduler) countDeadline(reason string) {
	if m := s.metrics; m != nil {
		m.DeadlineRejected.Inc(reason)
	}
}

// BatchError is the failure of one request in a Batch: the request's index
// and the underlying cause. It unwraps to the cause, so errors.Is/As see
// through it (and through any facade wrapping on top).
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("request %d: %v", e.Index, e.Err) }
func (e *BatchError) Unwrap() error { return e.Err }

// Batch reconstructs n requests with bounded concurrency and deterministic
// result placement. At most min(Workers, n) goroutines take requests in index
// order; each materializes request i with source(i) (conversion from wire
// form runs there, in parallel) and serves it through Reconstruct, so every
// member gets its own prediction, deadline admission, pooled session, cost
// metrics and SPJF rank, exactly as a single request does. consume(i, res)
// receives request i's session-owned result and must copy what it keeps.
// Distinct indices are consumed concurrently — writing to distinct slots of
// a preallocated slice needs no locking.
//
// Errors fail fast: the first failure cancels the shared context, aborting
// in-flight scoring scans and skipping unstarted requests. The returned error
// is a *BatchError carrying the lowest-indexed genuine failure observed;
// pure cancellation fallout from sibling requests is not reported over it.
// If the parent context itself is canceled, that error is returned.
func (s *Scheduler) Batch(ctx context.Context, n int, source func(i int) (Request, error), consume func(i int, r *core.Result) error) error {
	if n <= 0 {
		return nil
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next      atomic.Int64
		completed atomic.Int64
		mu        sync.Mutex
		firstErr  *BatchError
	)
	fail := func(i int, err error) {
		// Cancellation fallout — a sibling's failure (or the parent) tore
		// the batch context down under this request — must never mask the
		// root cause. But a context error from a live batch context is a
		// genuine failure (e.g. a source callback's own I/O deadline, or the
		// member's own deadline running out mid-scan) and is recorded like
		// any other, or the request would go silently unserved.
		if bctx.Err() != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return
		}
		mu.Lock()
		if firstErr == nil || i < firstErr.Index {
			firstErr = &BatchError{Index: i, Err: err}
		}
		mu.Unlock()
		cancel()
	}

	spawn := s.slots.capacity()
	if spawn > n {
		spawn = n
	}
	var wg sync.WaitGroup
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || bctx.Err() != nil {
					return
				}
				req, err := source(i)
				if err == nil {
					err = s.Reconstruct(bctx, req, func(r *core.Result) error { return consume(i, r) })
				}
				if err != nil {
					fail(i, err)
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if completed.Load() == int64(n) {
		return nil
	}
	// No genuine failure but requests went unserved: the parent context was
	// canceled out from under the batch.
	return ctx.Err()
}
