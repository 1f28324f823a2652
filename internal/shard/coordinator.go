package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/obs"
)

// ErrNotShardable marks a request the wire path cannot partition (the
// DisableFilter ablation scatters credits across stripe boundaries).
// Coordinator callers map it to plain local execution.
var ErrNotShardable = errors.New("shard: request not shardable")

// Metrics are the coordinator's instruments. All fields are optional: nil
// instruments are no-ops, so tests and embedded uses run unmetered.
type Metrics struct {
	// StripeSeconds observes each stripe RPC's wall time (including failed
	// attempts — a deadline miss is a real cost the histogram should show).
	StripeSeconds *obs.Histogram
	// MergeSeconds observes the CombineStripes tree-fold + epilogue time.
	MergeSeconds *obs.Histogram
	// Fallbacks counts stripes recomputed locally, labeled by reason
	// ("deadline" or "error").
	Fallbacks *obs.CounterVec
}

// Config assembles a Coordinator.
type Config struct {
	// Replicas are the stripe-serving base URLs ("host:port" or full URL;
	// a missing scheme defaults to http://). At least one is required.
	Replicas []string
	// Local recomputes one stripe in-process when its replica fails. The
	// coordinator calls it on the request's own goroutine, one stripe at a
	// time. The returned partial must not alias scratch shared with the
	// session the coordinator merges on — pull a pooled session,
	// ScoreStripe, deep-copy, put back. Required.
	Local func(ctx context.Context, spec core.StripeSpec) (core.StripePartial, error)
	// Metrics instruments the coordinator (optional).
	Metrics Metrics
	// BudgetMultiplier scales the cost model's per-stripe prediction into a
	// deadline budget (default 4: a replica running 4x over its predicted
	// time is treated as lost and its stripe recomputed locally).
	BudgetMultiplier float64
	// BudgetFloor is the minimum per-stripe budget (default 250ms), so
	// tiny predicted stripes are not failed over on scheduling jitter.
	BudgetFloor time.Duration
	// MinSupport, when positive, replaces the cost-model shard/local
	// decision in ShouldShard with a plain support threshold. It exists for
	// tests and operator overrides; zero (the default) lets the model
	// decide.
	MinSupport int
}

// Coordinator fans pair-balanced stripes of a reconstruction to replicas and
// tree-merges their partials. It is safe for concurrent use as long as each
// Reconstruct call gets its own core.Session (sessions own scratch).
type Coordinator struct {
	replicas   []string
	client     *http.Client
	local      func(ctx context.Context, spec core.StripeSpec) (core.StripePartial, error)
	metrics    Metrics
	budgetMult float64
	floor      time.Duration
	minSupport int
}

// New validates and assembles a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("shard: no replicas configured")
	}
	if cfg.Local == nil {
		return nil, errors.New("shard: no local fallback executor configured")
	}
	replicas, err := NormalizePeers(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	mult := cfg.BudgetMultiplier
	if mult <= 0 {
		mult = 4
	}
	floor := cfg.BudgetFloor
	if floor <= 0 {
		floor = 250 * time.Millisecond
	}
	return &Coordinator{
		replicas:   replicas,
		client:     &http.Client{}, // no global timeout: per-stripe budgets bound each call
		local:      cfg.Local,
		metrics:    cfg.Metrics,
		budgetMult: mult,
		floor:      floor,
		minSupport: cfg.MinSupport,
	}, nil
}

// NumReplicas returns the configured replica count (the fan-out width).
func (c *Coordinator) NumReplicas() int { return len(c.replicas) }

// ShouldShard decides whether a reconstruction with the given options and
// shape is worth fanning out: the active cost model must predict the sharded
// run cheaper than the local one (see core.PredictShardCost for what each
// side prices). A positive MinSupport in the config replaces the model with
// a plain threshold. Unshardable requests (DisableFilter, exact pin) are
// always local.
func (c *Coordinator) ShouldShard(opts core.Options, support, bits int) bool {
	sharded, okS := core.PredictShardCost(opts, support, bits, len(c.replicas))
	if !okS {
		return false
	}
	if c.minSupport > 0 {
		return support >= c.minSupport
	}
	_, local, okL := core.PredictCost(opts, support, bits)
	return okL && sharded < local
}

// Reconstruct runs one sharded reconstruction on the session: flatten once,
// fan pair-balanced stripes to the replicas, recompute failed stripes
// locally, and tree-merge the partials. The result is owned by the session,
// like Session.Reconstruct's. Unshardable inputs return ErrNotShardable
// (wrapped); the caller falls back to plain local execution.
func (c *Coordinator) Reconstruct(ctx context.Context, sess *core.Session, in *dist.Dist) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := sess.ShardProblem(in)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotShardable, err)
	}
	plan := dist.NewStripePlan(spec.Support(), len(c.replicas))
	S := plan.Len()
	outs := FormatOuts(spec.Outs, spec.NumBits)

	specs := make([]core.StripeSpec, S)
	parts := make([]core.StripePartial, S)
	errs := make([]error, S)
	var wg sync.WaitGroup
	for i := range specs {
		st := plan.Stripe(i)
		specs[i] = spec
		specs[i].Lo, specs[i].Hi = st.Lo, st.Hi
		wg.Add(1)
		go func(i int, pairs int64) {
			defer wg.Done()
			parts[i], errs[i] = c.stripe(ctx, specs[i], outs, pairs, c.replicas[i%len(c.replicas)])
		}(i, st.Pairs)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Stripes whose replica failed or missed its budget are recomputed here,
	// one after another, so the CPU-bound fallbacks stay inside the one
	// worker slot the sharded request holds: a replica's failure slows the
	// request but never fails it.
	for i, err := range errs {
		if err == nil {
			continue
		}
		reason := "error"
		if errors.Is(err, context.DeadlineExceeded) {
			reason = "deadline"
		}
		c.metrics.Fallbacks.Inc(reason)
		if parts[i], err = c.local(ctx, specs[i]); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	res, err := sess.CombineStripes(ctx, in, parts, "sharded:"+core.EngineBlocked)
	if err != nil {
		return nil, err
	}
	c.metrics.MergeSeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// stripe fetches one stripe from its replica within the stripe's deadline
// budget, observing the call's wall time.
func (c *Coordinator) stripe(ctx context.Context, sp core.StripeSpec, outs []string, pairs int64, replica string) (core.StripePartial, error) {
	budget := c.stripeBudget(sp, pairs)
	start := time.Now()
	part, err := c.remote(ctx, sp, outs, budget, replica)
	c.metrics.StripeSeconds.Observe(time.Since(start).Seconds())
	return part, err
}

// stripeBudget prices the stripe with the cost model and scales the
// prediction into a failover deadline. An unmodeled engine gets no budget —
// the caller's own deadline still bounds the call.
func (c *Coordinator) stripeBudget(sp core.StripeSpec, pairs int64) time.Duration {
	w := cost.Workload{Support: sp.Support(), Bits: sp.NumBits, Radius: sp.MaxD}
	predicted, ok := cost.Active().PredictStripeDuration(core.EngineBlocked, w, pairs)
	if !ok {
		return 0
	}
	budget := time.Duration(float64(predicted) * c.budgetMult)
	if budget < c.floor {
		budget = c.floor
	}
	return budget
}

// remote POSTs the stripe to the replica and decodes its partial.
func (c *Coordinator) remote(ctx context.Context, sp core.StripeSpec, outs []string, budget time.Duration, replica string) (core.StripePartial, error) {
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	body, err := json.Marshal(RequestFor(sp, outs, budget))
	if err != nil {
		return core.StripePartial{}, fmt.Errorf("shard: encoding stripe request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/v1/shard/reconstruct", bytes.NewReader(body))
	if err != nil {
		return core.StripePartial{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return core.StripePartial{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return core.StripePartial{}, fmt.Errorf("shard: replica %s: %s: %s", replica, resp.Status, bytes.TrimSpace(snippet))
	}
	var sr StripeResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return core.StripePartial{}, fmt.Errorf("shard: replica %s: decoding response: %w", replica, err)
	}
	part, err := PartialFrom(sp, &sr)
	if err != nil {
		return core.StripePartial{}, fmt.Errorf("shard: replica %s: %w", replica, err)
	}
	return part, nil
}
