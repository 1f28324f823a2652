package cost

import (
	"math"
	"time"
)

// The stripe-aware term: what a sharded reconstruction costs beyond its
// pairwise scan. A coordinator that fans S pair-balanced stripes to replicas
// pays, on top of the single-node flatten/epilogue work:
//
//   - per-stripe setup: one RPC dispatch + one replica admission + the
//     replica's own index rebuild overhead, S times;
//   - wire transfer: the full flattened support serialized to (and decoded
//     by) every replica — S·N outcome/probability pairs;
//   - merge: one tree-fold level per doubling of the stripe count,
//     ceil(log2 S) levels deep.
//
// In exchange the triangular scan itself divides by S (the stripe plan's
// pair balance makes the critical path the ideal equal share). PredictSharded
// prices that trade so auto/deadline admission can compare a sharded run
// against single-node, PredictStripe prices one stripe so the coordinator
// can budget per-replica deadlines, and cmd/costfit -table renders the
// crossover surface.

// ShardCoeffs are the coordination constants of a sharded run, hand-set like
// DefaultModel's setup terms (microbench's shard suite measures the
// in-process merge fraction; the wire constants are conservative HTTP/JSON
// estimates).
type ShardCoeffs struct {
	// StripeSetup is the fixed per-stripe cost in ns: RPC framing, the
	// replica's scheduler admission, and its index rebuild overhead.
	StripeSetup float64 `json:"stripe_setup_ns"`
	// PerOutcomeWire is the per-outcome, per-stripe wire cost in ns: every
	// replica receives (and JSON-decodes) the full flattened support.
	PerOutcomeWire float64 `json:"per_outcome_wire_ns"`
	// MergePerLevel is the per-tree-level merge cost in ns: one fold of the
	// per-distance partials per level, ceil(log2 S) levels.
	MergePerLevel float64 `json:"merge_per_level_ns"`
}

// DefaultShardCoeffs returns the hand-set coordination constants. The
// per-stripe setup is dominated by an HTTP round trip on a local network;
// the wire term by JSON-encoding one outcome bit string + float64 pair each
// way; the merge term by folding and re-scoring small per-distance vectors.
func DefaultShardCoeffs() ShardCoeffs {
	return ShardCoeffs{
		StripeSetup:    300_000, // ~0.3 ms per replica round trip
		PerOutcomeWire: 400,     // JSON marshal+unmarshal per outcome per stripe
		MergePerLevel:  20_000,  // per-level fold + its share of the epilogue
	}
}

// shardCoeffs returns the model's shard constants, defaulting when unset (a
// zero ShardCoeffs would price coordination as free and always shard).
func (m *Model) shardCoeffs() ShardCoeffs {
	if m != nil && (m.Shard.StripeSetup > 0 || m.Shard.PerOutcomeWire > 0 || m.Shard.MergePerLevel > 0) {
		return m.Shard
	}
	return DefaultShardCoeffs()
}

// stripeCapable reports whether the engine's pairwise pass can be
// partitioned into rank stripes — the blocked engine. Exact has no fused
// pass to stripe and incremental is streaming-only.
func stripeCapable(engine string) bool {
	return engine == EngineBlocked
}

// PredictSharded returns the predicted wall time in nanoseconds of the
// workload sharded into `stripes` pair-balanced stripes on the engine, and
// whether the combination is modeled (stripe-capable engine with fitted
// constants, stripes >= 1). The scan term divides by the stripe count; the
// stripe-aware overhead terms add per the package comment. PredictSharded of
// one stripe still pays one stripe's coordination, so a single-replica
// "shard" correctly prices worse than Predict's local run.
func (m *Model) PredictSharded(engine string, w Workload, stripes int) (float64, bool) {
	if m == nil || stripes < 1 || !stripeCapable(engine) {
		return 0, false
	}
	c, ok := m.Engines[engine]
	if !ok {
		return 0, false
	}
	n := w.effSupport()
	bits := clampBits(w.Bits)
	r := clampRadius(w.Radius, bits)
	S := float64(stripes)
	pairs := n * (n - 1) / 2
	sc := m.shardCoeffs()
	levels := 0.0
	if stripes > 1 {
		levels = math.Ceil(math.Log2(S))
	}
	ns := c.Setup + c.PerOutcome*n + // coordinator flatten + combine epilogue
		sc.StripeSetup*S +
		sc.PerOutcomeWire*n*S +
		pairs*perPairNs(engine, c, r, bits)/S +
		sc.MergePerLevel*levels
	if ns < 1 || math.IsNaN(ns) {
		ns = 1
	}
	return ns, true
}

// PredictShardedDuration is PredictSharded in time.Duration form, saturating
// like PredictDuration.
func (m *Model) PredictShardedDuration(engine string, w Workload, stripes int) (time.Duration, bool) {
	ns, ok := m.PredictSharded(engine, w, stripes)
	if !ok {
		return 0, false
	}
	if ns > float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64), true
	}
	return time.Duration(ns), true
}

// PredictStripe returns the predicted time in nanoseconds for one replica to
// score a single stripe owning `pairs` unordered pairs of the workload: the
// stripe setup, the replica's index build over the full support (every
// stripe sees all N outcomes), the wire decode, and the stripe's share of
// the scan. The shard coordinator turns this into per-stripe deadline
// budgets.
func (m *Model) PredictStripe(engine string, w Workload, pairs int64) (float64, bool) {
	if m == nil || !stripeCapable(engine) {
		return 0, false
	}
	c, ok := m.Engines[engine]
	if !ok {
		return 0, false
	}
	n := w.effSupport()
	bits := clampBits(w.Bits)
	r := clampRadius(w.Radius, bits)
	sc := m.shardCoeffs()
	p := float64(pairs)
	if p < 0 {
		p = 0
	}
	ns := sc.StripeSetup + c.Setup + (c.PerOutcome+sc.PerOutcomeWire)*n + p*perPairNs(engine, c, r, bits)
	if ns < 1 || math.IsNaN(ns) {
		ns = 1
	}
	return ns, true
}

// PredictStripeDuration is PredictStripe in time.Duration form.
func (m *Model) PredictStripeDuration(engine string, w Workload, pairs int64) (time.Duration, bool) {
	ns, ok := m.PredictStripe(engine, w, pairs)
	if !ok {
		return 0, false
	}
	if ns > float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64), true
	}
	return time.Duration(ns), true
}
