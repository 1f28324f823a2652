package main

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
)

// The shard suite measures the stripe-sharded reconstruction's two overheads
// that wall-clock speedup hides: how evenly the pair-balanced plan splits the
// triangular scan (pair balance — max stripe pairs over the ideal even share)
// and how much of the total time the reduction-tree merge costs
// (merge-overhead fraction — tree-fold ns over scan+fold ns). Both are
// host-independent ratios, so BENCH_shard.json gates them directly instead
// of gating ns figures that drift with hardware.
//
// The gate workload is the blocked engine's acceptance config (20-bit /
// 4000-support at the paper's default radius) split 8 ways. The run also
// re-verifies the split: the combined stripes must match the single-node
// reconstruction within 1e-12 total variation, or the timing numbers gate a
// wrong answer.
const (
	shardSupport = 4000
	shardStripes = 8
	// maxPairBalance: no stripe owns more than 5% over its even share, so the
	// slowest replica is within 5% of ideal on uniform hardware.
	maxPairBalance = 1.05
	// maxMergeFraction: the fold is an epilogue, not a phase — sharding S
	// ways must not buy an O(S) merge tax back.
	maxMergeFraction = 0.10
)

// shardReport is the BENCH_shard.json schema.
type shardReport struct {
	Benchmark string `json:"benchmark"`
	Bits      int    `json:"bits"`
	Support   int    `json:"support"`
	Radius    int    `json:"radius"`
	Stripes   int    `json:"stripes"`
	Engine    string `json:"engine"`
	// Workers pins the measured runs single-threaded, like the core suite:
	// the ratios below compare sequential scan time to sequential fold time,
	// not scheduler luck.
	Workers int `json:"workers"`
	// TotalPairs and MaxStripePairs feed the balance ratio; committed so the
	// gate is auditable from the report alone.
	TotalPairs     int64   `json:"total_pairs"`
	MaxStripePairs int64   `json:"max_stripe_pairs"`
	PairBalance    float64 `json:"pair_balance"`
	MaxPairBalance float64 `json:"max_pair_balance"`
	// ScanNsPerOp is one full pass of all stripes' ScoreStripe calls;
	// MergeNsPerOp is one CombineStripes tree-fold + epilogue over their
	// partials. The fraction divides merge by their sum.
	ScanNsPerOp          int64   `json:"scan_ns_per_op"`
	MergeNsPerOp         int64   `json:"merge_ns_per_op"`
	MergeOverheadFrac    float64 `json:"merge_overhead_fraction"`
	MaxMergeOverheadFrac float64 `json:"max_merge_overhead_fraction"`
	CombinedVsSingleTVD  float64 `json:"combined_vs_single_tvd"`
	cost.Host
}

func runShard() (any, error) {
	d := dist.Synthetic(bits, shardSupport, 42)
	ctx := context.Background()

	scorer, err := core.NewSession(core.Options{Workers: 1, Engine: core.EngineBlocked})
	if err != nil {
		return nil, err
	}
	combiner, err := core.NewSession(core.Options{Workers: 1, Engine: core.EngineBlocked})
	if err != nil {
		return nil, err
	}
	spec, err := combiner.ShardProblem(d)
	if err != nil {
		return nil, err
	}
	plan := dist.NewStripePlan(spec.Support(), shardStripes)

	rep := &shardReport{
		Benchmark:            "shard-stripe-merge-overhead",
		Bits:                 bits,
		Support:              spec.Support(),
		Radius:               spec.MaxD,
		Stripes:              plan.Len(),
		Engine:               core.EngineBlocked,
		Workers:              1,
		TotalPairs:           plan.TotalPairs(),
		PairBalance:          plan.Balance(),
		MaxPairBalance:       maxPairBalance,
		MaxMergeOverheadFrac: maxMergeFraction,
		Host:                 host(),
	}
	for _, st := range plan.Stripes() {
		rep.MaxStripePairs = max(rep.MaxStripePairs, st.Pairs)
	}

	// Score every stripe once, deep-copying off the session scratch — the
	// merge benchmark folds these fixed partials.
	parts := make([]core.StripePartial, plan.Len())
	for i, st := range plan.Stripes() {
		sp := spec
		sp.Lo, sp.Hi = st.Lo, st.Hi
		part, err := scorer.ScoreStripe(ctx, sp)
		if err != nil {
			return nil, err
		}
		parts[i] = core.StripePartial{
			Lo:   part.Lo,
			Hi:   part.Hi,
			CHS:  append([]float64(nil), part.CHS...),
			Rows: append([]float64(nil), part.Rows...),
		}
	}

	// Correctness before timing: the combined stripes must reproduce the
	// single-node answer, or the ratios below gate a wrong computation.
	combined, err := combiner.CombineStripes(ctx, d, parts, core.EngineBlocked)
	if err != nil {
		return nil, err
	}
	single := core.Reconstruct(d, core.Options{Workers: 1, Engine: core.EngineBlocked})
	rep.CombinedVsSingleTVD = dist.TVD(combined.Out, single.Out)
	if rep.CombinedVsSingleTVD > 1e-12 {
		return nil, fmt.Errorf("combined stripes diverge from single-node: TVD %g > 1e-12", rep.CombinedVsSingleTVD)
	}

	// The scan and the merge are timed in turn at their medians, so host
	// drift between them does not move their ratio.
	var t timer
	res := t.medians(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			for _, st := range plan.Stripes() {
				sp := spec
				sp.Lo, sp.Hi = st.Lo, st.Hi
				if _, err := scorer.ScoreStripe(ctx, sp); err != nil {
					return err
				}
			}
		}
		return nil
	}, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if _, err := combiner.CombineStripes(ctx, d, parts, core.EngineBlocked); err != nil {
				return err
			}
		}
		return nil
	})
	rep.ScanNsPerOp, rep.MergeNsPerOp = res[0].NsPerOp(), res[1].NsPerOp()
	rep.MergeOverheadFrac = float64(rep.MergeNsPerOp) / float64(rep.ScanNsPerOp+rep.MergeNsPerOp)
	return rep, t.err
}
