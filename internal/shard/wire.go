// Package shard fans a ranked triangular reconstruction across replicas.
//
// The coordinator flattens the input once (core.Session.ShardProblem), cuts
// the rank axis into a pair-balanced dist.StripePlan, and POSTs one
// StripeRequest per stripe to /v1/shard/reconstruct on its replicas. Each
// replica rebuilds the identical rank order from the wire support and answers
// with the stripe's per-distance CHS partial and admitted-strength rows
// (core.Session.ScoreStripe). The coordinator merges the partials through the
// same reduction-tree fold the in-process striped engines run
// (core.Session.CombineStripes), so a sharded reconstruction differs from
// single-node only in float summation grouping.
//
// Replicas are expendable: a stripe whose replica errors or misses its
// cost-model deadline budget is recomputed locally, so the coordinator
// degrades to (at worst) a single-node reconstruction rather than failing.
package shard

import (
	"fmt"
	"time"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/sched"
)

// StripeRequest is the POST /v1/shard/reconstruct body: one stripe
// assignment of a ranked triangular scan. Outcomes travel as fixed-width bit
// strings (bitstr.Format) and probabilities as float64 used verbatim on both
// sides — no renormalization anywhere on the wire path, so coordinator and
// replica rank identical supports identically and the merged floats match
// the in-process fold bit for bit. Every stripe runs the blocked engine;
// older coordinators also send an "engine" member ("blocked" or the retired
// "bucketed"), which decoding ignores.
type StripeRequest struct {
	// Bits is the outcome width; every entry of Outs must be exactly this
	// long.
	Bits int `json:"bits"`
	// Outs is the full flattened scored support in strictly ascending
	// outcome order — TopM truncation, if any, already applied by the
	// coordinator. Every stripe of one reconstruction carries the same
	// support; only Lo/Hi differ.
	Outs []string `json:"outs"`
	// Probs are the probabilities parallel to Outs, verbatim from the
	// coordinator's flatten.
	Probs []float64 `json:"probs"`
	// MaxD is the resolved admission radius (inclusive).
	MaxD int `json:"max_d"`
	// Lo and Hi bound the owned rank range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// BudgetMS is the coordinator's deadline budget for this stripe in
	// milliseconds (0 = none); the replica feeds it to its own deadline
	// admission so hopeless work is rejected before taking a slot.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// StripeResponse is the replica's answer: the CHS partial over the pairs the
// stripe owns (MaxD+1 entries) and the admitted-strength rows of the ranks it
// owns, flattened (Hi-Lo)×(MaxD+1) row-major — core.StripePartial on the
// wire.
type StripeResponse struct {
	Engine string    `json:"engine"`
	CHS    []float64 `json:"chs"`
	Rows   []float64 `json:"rows"`
}

// FormatOuts renders a flattened support as wire bit strings. The
// coordinator calls it once per reconstruction and shares the slice across
// every stripe's request body.
func FormatOuts(outs []bitstr.Bits, bits int) []string {
	ss := make([]string, len(outs))
	for i, x := range outs {
		ss[i] = bitstr.Format(x, bits)
	}
	return ss
}

// RequestFor builds the wire request for one stripe assignment. outs is the
// pre-formatted support (FormatOuts of spec.Outs); budget rounds up to whole
// milliseconds so a sub-millisecond budget is never wired as "none".
func RequestFor(spec core.StripeSpec, outs []string, budget time.Duration) *StripeRequest {
	budgetMS := int64(0)
	if budget > 0 {
		budgetMS = int64((budget + time.Millisecond - 1) / time.Millisecond)
	}
	return &StripeRequest{
		Bits:     spec.NumBits,
		Outs:     outs,
		Probs:    spec.Probs,
		MaxD:     spec.MaxD,
		Lo:       spec.Lo,
		Hi:       spec.Hi,
		BudgetMS: budgetMS,
	}
}

// Budget returns the request's deadline budget as a duration (0 = none).
func (r *StripeRequest) Budget() time.Duration {
	if r.BudgetMS <= 0 {
		return 0
	}
	return sched.BudgetMS(r.BudgetMS)
}

// Spec decodes the request into the core stripe spec, validating the wire
// invariants the replica's correctness depends on: parallel slices, every
// outcome exactly Bits wide, and strictly ascending outcome order (the order
// both sides derive the deterministic ranking from). Range and radius bounds
// are re-checked by core's own spec validation at ScoreStripe time.
func (r *StripeRequest) Spec() (core.StripeSpec, error) {
	if r.Bits < 1 || r.Bits > bitstr.MaxBits {
		return core.StripeSpec{}, fmt.Errorf("shard: width %d out of range [1, %d]", r.Bits, bitstr.MaxBits)
	}
	if len(r.Outs) == 0 {
		return core.StripeSpec{}, fmt.Errorf("shard: empty support")
	}
	if len(r.Probs) != len(r.Outs) {
		return core.StripeSpec{}, fmt.Errorf("shard: %d outcomes but %d probabilities", len(r.Outs), len(r.Probs))
	}
	outs := make([]bitstr.Bits, len(r.Outs))
	for i, s := range r.Outs {
		if len(s) != r.Bits {
			return core.StripeSpec{}, fmt.Errorf("shard: outcome %d is %d characters, want %d", i, len(s), r.Bits)
		}
		x, err := bitstr.Parse(s)
		if err != nil {
			return core.StripeSpec{}, fmt.Errorf("shard: outcome %d: %v", i, err)
		}
		if i > 0 && x <= outs[i-1] {
			return core.StripeSpec{}, fmt.Errorf("shard: outcomes not strictly ascending at index %d", i)
		}
		outs[i] = x
	}
	return core.StripeSpec{
		NumBits: r.Bits,
		Outs:    outs,
		Probs:   r.Probs,
		MaxD:    r.MaxD,
		Lo:      r.Lo,
		Hi:      r.Hi,
	}, nil
}

// PartialFrom validates a replica's response shape against the stripe spec it
// answered and converts it to the core partial CombineStripes consumes. The
// response slices are freshly decoded, so the partial is safe to retain until
// the merge.
func PartialFrom(spec core.StripeSpec, resp *StripeResponse) (core.StripePartial, error) {
	stride := spec.MaxD + 1
	if len(resp.CHS) != stride {
		return core.StripePartial{}, fmt.Errorf("shard: response CHS has %d entries, want %d", len(resp.CHS), stride)
	}
	if want := (spec.Hi - spec.Lo) * stride; len(resp.Rows) != want {
		return core.StripePartial{}, fmt.Errorf("shard: response rows have %d entries, want %d", len(resp.Rows), want)
	}
	return core.StripePartial{Lo: spec.Lo, Hi: spec.Hi, CHS: resp.CHS, Rows: resp.Rows}, nil
}
