package core

import (
	"context"
	"sync"

	"repro/internal/bitstr"
)

// Engine names accepted by Options.Engine and the public facade. Lookup
// (registry.go) maps each name to its engine; EngineAuto is not an engine
// but a per-problem policy over the batch engines.
const (
	// EngineAuto (or the empty string) selects the engine per workload from
	// the active cost model (internal/cost): exact or blocked, whichever
	// predicts the cheaper reconstruction for the request's (support, width,
	// radius) — typically exact on small supports and blocked everywhere
	// else. Explicit engine names bypass the model entirely.
	EngineAuto = "auto"
	// EngineExact is the reference O(N²) double loop, a line-by-line
	// transcription of Algorithm 1.
	EngineExact = "exact"
	// EngineBlocked computes the same quantities in one fused triangular
	// pass over the rank-ordered index, with a flat, closure-free inner
	// loop over whichever candidate generator visits fewer pairs: the
	// bit-packed weight window (dist.Packed) or, at small radii, the block
	// multi-index (dist.MultiIndex).
	EngineBlocked = "blocked"
	// EngineBucketed is the retired name of the popcount-bucketed engine
	// that blocked superseded. It stays accepted wherever engine names
	// resolve — journaled sessions, handoff payloads and client pins
	// written before the retirement — as an alias of EngineBlocked, but is
	// no longer listed by EngineNames.
	EngineBucketed = "bucketed"
)

// ScanKernel names the bodies that check candidates in blocked's
// multi-index scan and compact a stream walk's candidates on this host:
// "avx512" where the CPU and the OS support AVX512F, AVX512VL and
// AVX512_VPOPCNTDQ (amd64 only; probed once, at package init), and
// "portable", the Go loops, everywhere else. Both return the same results,
// so the choice never changes an output bit.
func ScanKernel() string {
	if useAVX512 {
		return "avx512"
	}
	return "portable"
}

// Problem is one flattened reconstruction instance handed to an Engine:
// the unique outcomes in deterministic ascending order, their probabilities,
// and the resolved scoring options.
type Problem struct {
	NumBits       int
	Outs          []bitstr.Bits
	Probs         []float64
	MaxD          int
	Scheme        WeightScheme
	DisableFilter bool
	Workers       int
}

// Engine computes the three per-reconstruction quantities of Algorithm 1
// over a flattened problem: the global CHS vector (step 1), the per-distance
// weights (step 2), and the per-outcome likelihoods L(x) = Pr(x)·S(x)
// (step 3), aligned with Problem.Outs. Implementations must be
// deterministic for a fixed worker count and must agree with the exact
// engine up to float64 rounding.
//
// The scratch argument is never nil: the built-in engines draw every
// intermediate buffer from it so a Session reconstructing repeatedly is
// allocation-free after warm-up, and the returned slices alias it (valid
// until the next Score call with the same scratch). Third-party engines may
// ignore it and allocate. A canceled context aborts the parallel scans
// between outcome rows and surfaces as a non-nil error; on error the
// returned slices are meaningless.
type Engine interface {
	Name() string
	Score(ctx context.Context, p *Problem, s *Scratch) (chs, w, scores []float64, err error)
}

// canceled is the per-row cancellation probe of the parallel scans: a
// non-blocking read of ctx.Done(), cheap enough for the outer loops of the
// quadratic passes (each row amortizes it over O(N) pair work).
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// parallelRange splits [0,n) into one contiguous chunk per worker and blocks
// until every chunk has been processed. The callback receives the worker
// index so callers can keep per-worker accumulators without locking. Use it
// for loops whose per-index cost is uniform; triangular loops run one chunk
// per stripe of a pair-balanced dist.StripePlan (n = workers = stripes).
func parallelRange(n, workers int, fn func(worker, lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
