package core

import (
	"context"

	"repro/internal/bitstr"
)

// exactEngine is the reference implementation: a line-by-line transcription
// of Algorithm 1. Step 1 accumulates the global CHS over a triangular
// pairwise loop; step 3 scores every outcome against every other. It is kept
// verbatim as the semantic baseline the blocked engine is verified against,
// and remains the faster choice for small supports.
//
// The worker bodies are standalone functions called directly on the
// single-worker path: closures handed to the parallel helpers are
// heap-allocated (they leak into goroutines), and skipping them keeps a
// warmed-up single-threaded session at zero allocations per reconstruction.
type exactEngine struct{}

func (exactEngine) Name() string { return EngineExact }

func (exactEngine) Score(ctx context.Context, p *Problem, s *Scratch) ([]float64, []float64, []float64, error) {
	N := len(p.Outs)
	workers := p.Workers
	done := ctx.Done()

	// Step 1: accumulate the global CHS over all ordered outcome pairs.
	chs := globalCHS(done, p.Outs, p.Probs, p.MaxD, workers, s)
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}

	// Step 2: per-distance weights.
	s.w = growFloats(s.w, p.MaxD+1)
	w := weightsInto(s.w, chs, p.MaxD, p.Scheme)

	// Step 3: per-outcome neighborhood score and likelihood.
	s.scores = growFloats(s.scores, N)
	scores := s.scores
	if workers <= 1 || N <= 1 {
		exactScoreRows(done, p, w, scores, 0, N)
	} else {
		parallelRange(N, workers, func(_, lo, hi int) {
			exactScoreRows(done, p, w, scores, lo, hi)
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	return chs, w, scores, nil
}

// exactScoreRows scores outcome rows [lo, hi): the full inner loop of
// Algorithm 1 step 3 against every other outcome.
func exactScoreRows(done <-chan struct{}, p *Problem, w, scores []float64, lo, hi int) {
	N := len(p.Outs)
	outs, probs, maxD := p.Outs, p.Probs, p.MaxD
	for i := lo; i < hi; i++ {
		if canceled(done) {
			return
		}
		x, px := outs[i], probs[i]
		score := px
		for j := 0; j < N; j++ {
			if j == i {
				continue
			}
			py := probs[j]
			if !p.DisableFilter && px <= py {
				continue
			}
			if d := bitstr.Distance(x, outs[j]); d <= maxD {
				score += w[d] * py
			}
		}
		scores[i] = score * px
	}
}

// globalCHS computes CHS[d] = sum over ordered pairs (x,y) with
// d(x,y) = d <= maxD of P(y). The accumulation over unordered pairs
// contributes P(x)+P(y) once, halving the pair loop. Row i owns its pairs
// with the rows after it, so the triangular pass splits into the
// pair-balanced contiguous stripes of a dist.StripePlan; each stripe sums
// into its own leaf of the reduction tree (reduce.go), folded once every
// stripe has returned. A canceled context leaves the sum meaningless —
// callers check afterwards.
func globalCHS(done <-chan struct{}, outs []bitstr.Bits, probs []float64, maxD, workers int, s *Scratch) []float64 {
	N := len(outs)
	S := max(min(workers, N), 1) // stripes
	rows := s.chsRows(2*S-1, maxD+1)
	if S == 1 {
		exactCHSRows(done, outs, probs, maxD, rows[0], 0, N)
	} else {
		plan := s.stripePlan(N, S)
		parallelRange(S, S, func(_, st, _ int) {
			sp := plan.Stripe(st)
			exactCHSRows(done, outs, probs, maxD, rows[S-1+st], sp.Lo, sp.Hi)
		})
		foldTree(rows)
	}
	s.chs = growFloats(s.chs, maxD+1)
	copy(s.chs, rows[0])
	return s.chs
}

// exactCHSRows accumulates rows [lo, hi) of the triangular CHS pass into
// one stripe's accumulator row.
func exactCHSRows(done <-chan struct{}, outs []bitstr.Bits, probs []float64, maxD int, local []float64, lo, hi int) {
	N := len(outs)
	for i := lo; i < hi; i++ {
		if canceled(done) {
			return
		}
		// Self pair: d=0 contributes P(x) once per x.
		local[0] += probs[i]
		for j := i + 1; j < N; j++ {
			if d := bitstr.Distance(outs[i], outs[j]); d <= maxD {
				local[d] += probs[i] + probs[j]
			}
		}
	}
}
