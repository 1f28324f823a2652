package core

import (
	"context"

	"repro/internal/bitstr"
)

func init() {
	Register(Registration{Name: EngineExact, Engine: exactEngine{}})
}

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
// contributes P(x)+P(y) once, halving the pair loop. Rows are dealt to
// workers round-robin: the triangular inner loop shrinks with i, so strided
// assignment keeps per-worker pair counts balanced within one row of each
// other, where contiguous chunks would give the first worker a quadratic
// share. Per-worker accumulator rows come zeroed from the scratch; a
// canceled context leaves the sum meaningless — callers check afterwards.
func globalCHS(done <-chan struct{}, outs []bitstr.Bits, probs []float64, maxD, workers int, s *Scratch) []float64 {
	N := len(outs)
	if workers > N {
		workers = N
	}
	if workers < 1 {
		workers = 1
	}
	partial := s.chsRows(workers, maxD+1)
	if workers <= 1 {
		chsRowsStride(done, outs, probs, maxD, partial[0], 0, 1)
	} else {
		parallelStride(N, workers, func(w, start, stride int) {
			chsRowsStride(done, outs, probs, maxD, partial[w], start, stride)
		})
	}
	s.chs = growFloats(s.chs, maxD+1)
	chs := s.chs
	zeroFloats(chs)
	for _, local := range partial {
		for d, v := range local {
			chs[d] += v
		}
	}
	return chs
}

// chsRowsStride accumulates one worker's share of the triangular CHS pass —
// rows start, start+stride, ... — into its local accumulator row.
func chsRowsStride(done <-chan struct{}, outs []bitstr.Bits, probs []float64, maxD int, local []float64, start, stride int) {
	N := len(outs)
	for i := start; i < N; i += stride {
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
