package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// The stripe-scoring surface of the over-the-wire sharding layer. The shard
// coordinator (internal/shard) flattens a reconstruction once, cuts the
// ranked triangular scan into a pair-balanced dist.StripePlan, and fans one
// StripeSpec per replica; each replica answers with a StripePartial computed
// by Session.ScoreStripe — the exact same blocked scan (blockedScan) the
// in-process striped engine runs, over the exact same deterministic rank
// order (both sides rebuild it from the ascending-outcome flattened support).
// The coordinator then merges partials with Session.CombineStripes, whose
// fold is the same addInto tree kernel — so a sharded reconstruction differs
// from single-node only by float summation grouping, which the 1e-12 e2e
// pins bound.
//
// The wire path is filtered-only: the DisableFilter ablation scatters
// credits across ranks outside a stripe's own range, so it cannot be
// partitioned by rank ownership; coordinators fall back to local execution
// for it (shard.ErrNotShardable).

// StripeSpec describes one stripe assignment of a ranked triangular scan:
// the full flattened scored support (ascending outcome order — TopM
// truncation, if any, has already happened), the resolved radius, and the
// contiguous rank range [Lo, Hi) this stripe owns.
type StripeSpec struct {
	NumBits int
	Outs    []bitstr.Bits // full scored support, ascending outcome order
	Probs   []float64     // parallel to Outs, used verbatim (no renormalization)
	MaxD    int
	Lo, Hi  int // owned rank range
}

// Support returns the scored support size of the spec.
func (sp *StripeSpec) Support() int { return len(sp.Outs) }

// Pairs returns the unordered pairs the stripe owns — the quantity the cost
// model prices its deadline budget by.
func (sp *StripeSpec) Pairs() int64 {
	return dist.PairsOwned(len(sp.Outs), sp.Lo, sp.Hi)
}

// StripePartial is one stripe's contribution to a sharded reconstruction:
// the per-distance CHS partial over the pairs the stripe owns, and the
// admitted-neighborhood-strength rows of the ranks it owns, flattened
// (Hi-Lo)×(MaxD+1) row-major.
type StripePartial struct {
	Lo, Hi int
	CHS    []float64
	Rows   []float64
}

// validateSpec checks a stripe spec's structural invariants.
func validateSpec(sp *StripeSpec) error {
	if sp.NumBits < 1 || sp.NumBits > bitstr.MaxBits {
		return fmt.Errorf("core: stripe spec width %d out of range [1, %d]", sp.NumBits, bitstr.MaxBits)
	}
	n := len(sp.Outs)
	if n == 0 {
		return errors.New("core: stripe spec has empty support")
	}
	if len(sp.Probs) != n {
		return fmt.Errorf("core: stripe spec has %d outcomes but %d probabilities", n, len(sp.Probs))
	}
	if sp.MaxD < 0 || sp.MaxD > sp.NumBits {
		return fmt.Errorf("core: stripe spec radius %d out of range [0, %d]", sp.MaxD, sp.NumBits)
	}
	if sp.Lo < 0 || sp.Hi < sp.Lo || sp.Hi > n {
		return fmt.Errorf("core: stripe range [%d, %d) out of [0, %d]", sp.Lo, sp.Hi, n)
	}
	return nil
}

// ScoreStripe computes one stripe of the fused triangular pass over the
// session's scratch: the CHS partial of the pairs owned by ranks [Lo, Hi)
// and the admitted-strength rows of those ranks. The spec's outcomes must be
// unique and in ascending order (the flattened order every Session
// produces); the rank order is then rebuilt deterministically, so every
// replica of the same support derives identical stripes.
//
// The returned partial aliases the session's scratch — valid until the next
// ScoreStripe/Reconstruct call on this session; callers that accumulate
// multiple stripes on one session (the coordinator's local-fallback path,
// microbench's shard suite) must copy. Options on the session itself are ignored: the spec
// fully describes the work, which is how one replica serves stripes of
// differently-configured coordinator requests without reconfiguration.
func (s *Session) ScoreStripe(ctx context.Context, spec StripeSpec) (StripePartial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateSpec(&spec); err != nil {
		return StripePartial{}, err
	}
	N := len(spec.Outs)
	stride := spec.MaxD + 1
	done := ctx.Done()

	sc := &s.scratch
	if cap(sc.entries) < N {
		sc.entries = make([]dist.Entry, N)
	}
	sc.entries = sc.entries[:N]
	for i := range sc.entries {
		sc.entries[i] = dist.Entry{X: spec.Outs[i], P: spec.Probs[i]}
	}
	ix := sc.index(spec.NumBits, sc.entries)

	sc.acc = growFloats(sc.acc, N*stride)
	rows := sc.acc[spec.Lo*stride : spec.Hi*stride]
	zeroFloats(rows)
	local := sc.chsRows(1, stride)[0]

	sc.blockedScan(ix, spec.MaxD, false).pass(done, spec.MaxD, false, local, sc.acc, spec.Lo, spec.Hi)
	if err := ctx.Err(); err != nil {
		return StripePartial{}, err
	}
	return StripePartial{Lo: spec.Lo, Hi: spec.Hi, CHS: local, Rows: rows}, nil
}

// ShardProblem flattens the input exactly as Reconstruct would (TopM
// truncation included) and returns the base StripeSpec a coordinator slices
// into per-replica assignments, with Lo/Hi spanning the whole scan. Every
// stripe runs blocked, the one engine with a fused pass to stripe, whatever
// engine the session's options name. The spec's slices alias
// the session and stay valid through the subsequent CombineStripes call on
// the same input — the coordinator's intended call sequence.
//
// DisableFilter reconstructions are not shardable (see the package comment);
// they return an error the coordinator maps to its local fallback.
func (s *Session) ShardProblem(in *dist.Dist) (StripeSpec, error) {
	if in == nil || in.Len() == 0 {
		return StripeSpec{}, errors.New("core: cannot reconstruct empty distribution")
	}
	if s.opts.DisableFilter {
		return StripeSpec{}, errors.New("core: DisableFilter reconstructions cannot be sharded")
	}
	n := in.NumBits()
	maxD := s.opts.radius(n)
	outs, probs, _ := s.flatten(in)
	return StripeSpec{
		NumBits: n,
		Outs:    outs,
		Probs:   probs,
		MaxD:    maxD,
		Lo:      0,
		Hi:      len(outs),
	}, nil
}

// CombineStripes assembles a full reconstruction from stripe partials: the
// per-distance CHS partials fold bottom-up through the same reduction-tree
// kernel the in-process engines run (foldTree/addInto — bit-identical to the
// asynchronous fold for the same leaves), then the weight and scoring
// epilogue runs exactly as a single-node engine's would. The partials must
// tile [0, N) contiguously in rank order, each carrying the CHS and rows
// shape ScoreStripe produced for the same flattened input; in is flattened
// again here, so coordinator and replicas need never exchange ranks — both
// derive them from the support.
//
// engine labels the Result (the coordinator passes its "sharded:<engine>"
// tag). The Result is owned by the session, like Reconstruct's.
func (s *Session) CombineStripes(ctx context.Context, in *dist.Dist, parts []StripePartial, engine string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if in == nil || in.Len() == 0 {
		return nil, errors.New("core: cannot reconstruct empty distribution")
	}
	if len(parts) == 0 {
		return nil, errors.New("core: no stripe partials to combine")
	}
	n := in.NumBits()
	maxD := s.opts.radius(n)
	stride := maxD + 1
	outs, probs, tail := s.flatten(in)
	N := len(outs)

	lo := 0
	for i := range parts {
		p := &parts[i]
		if p.Lo != lo {
			return nil, fmt.Errorf("core: stripe partial %d starts at rank %d, want %d (gap or overlap)", i, p.Lo, lo)
		}
		if p.Hi < p.Lo || p.Hi > N {
			return nil, fmt.Errorf("core: stripe partial %d range [%d, %d) out of [0, %d]", i, p.Lo, p.Hi, N)
		}
		if len(p.CHS) != stride {
			return nil, fmt.Errorf("core: stripe partial %d CHS has %d entries, want %d", i, len(p.CHS), stride)
		}
		if len(p.Rows) != (p.Hi-p.Lo)*stride {
			return nil, fmt.Errorf("core: stripe partial %d rows have %d entries, want %d", i, len(p.Rows), (p.Hi-p.Lo)*stride)
		}
		lo = p.Hi
	}
	if lo != N {
		return nil, fmt.Errorf("core: stripe partials cover ranks [0, %d), want [0, %d)", lo, N)
	}

	// Tree-fold the CHS partials: leaves S-1..2S-2 hold the per-stripe
	// partials, internal nodes fold bottom-up — the same kernel and tree
	// shape as the in-process asynchronous fold.
	sc := &s.scratch
	S := len(parts)
	treeRows := sc.chsRows(2*S-1, stride)
	for i := range parts {
		copy(treeRows[S-1+i], parts[i].CHS)
	}
	foldTree(treeRows)
	sc.chs = growFloats(sc.chs, stride)
	chs := sc.chs
	copy(chs, treeRows[0])

	sc.w = growFloats(sc.w, stride)
	w := weightsInto(sc.w, chs, maxD, s.opts.Weights)

	// Scoring epilogue over the deterministic rank order: identical to the
	// engines' epilogue, with each rank's admitted-strength row read from
	// the partial that owns it.
	if cap(sc.entries) < N {
		sc.entries = make([]dist.Entry, N)
	}
	sc.entries = sc.entries[:N]
	for i := range sc.entries {
		sc.entries[i] = dist.Entry{X: outs[i], P: probs[i]}
	}
	ranked := sc.index(n, sc.entries).Ranked()
	sc.scores = growFloats(sc.scores, N)
	scores := sc.scores
	pi := 0
	for r := range ranked {
		for r >= parts[pi].Hi {
			pi++
		}
		p := &parts[pi]
		row := p.Rows[(r-p.Lo)*stride : (r-p.Lo)*stride+stride]
		e := &ranked[r]
		v := e.P
		for d := 0; d <= maxD; d++ {
			v += w[d] * row[d]
		}
		scores[e.Ord] = v * e.P
	}

	if s.out == nil || s.out.NumBits() != n {
		s.out = dist.New(n)
	} else {
		s.out.Reset()
	}
	out := s.out
	for i, x := range outs {
		out.Set(x, scores[i])
	}
	for _, e := range tail {
		out.Set(e.X, e.P*e.P)
	}
	out.Normalize()
	if engine == "" {
		engine = EngineBlocked
	}
	s.res = Result{Out: out, GlobalCHS: chs, Weights: w, Radius: maxD, Engine: engine}
	return &s.res, nil
}
