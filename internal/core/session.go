package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/cost"
	"repro/internal/dist"
)

// Scratch holds the reusable buffers the built-in engines draw their
// intermediate state from: the CHS/weight/score vectors, the reduction
// tree's CHS rows, and (for the blocked engine) the index entries, the
// rank-ordered index itself, its scan structures, and the per-rank
// neighborhood matrix. The
// zero value is ready; buffers grow to the high-water mark of the problems
// scored through it and are reused thereafter, so a warmed-up Scratch makes
// repeated reconstructions allocation-free. It is owned by one Session (or
// one Score call chain) at a time and must not be shared concurrently.
type Scratch struct {
	chs, w, scores []float64

	// The reduction tree's CHS rows (reduce.go), carved out of one backing
	// buffer. Rows are padded to cache-line multiples so stripes
	// accumulating into adjacent leaves do not false-share.
	partial    [][]float64
	partialBuf []float64

	// Blocked engine state: the flattened index entries, the reusable
	// rank-ordered index, the two candidate generators over it (the
	// packed weight-window view and the block multi-index), and the per-rank
	// admitted-strength matrix.
	entries []dist.Entry
	ix      *dist.Index
	pk      *dist.Packed
	mi      *dist.MultiIndex
	acc     []float64

	// DisableFilter ablation state: one A slab per tree node, carved out of
	// one reused backing buffer (the multi-stripe ablation path writes
	// scattered rows, so stripes cannot share the A matrix).
	slabs   [][]float64
	slabBuf []float64

	// The pair-balanced stripe plan of the multi-stripe scans, rebuilt in
	// place per call, so a warmed-up session pays no allocation for it.
	plan *dist.StripePlan
}

// growFloats returns buf resized to n, reallocating only when capacity is
// exceeded. Contents are unspecified; callers that need zeroes zero them.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func zeroFloats(f []float64) {
	for i := range f {
		f[i] = 0
	}
}

// chsRows returns n zeroed accumulator rows of length stride, backed by one
// reused buffer with cache-line padding between rows.
func (s *Scratch) chsRows(n, stride int) [][]float64 {
	const pad = 16 // floats per 128-byte padding unit
	rowStride := (stride + pad - 1) / pad * pad
	s.partialBuf = growFloats(s.partialBuf, n*rowStride)
	zeroFloats(s.partialBuf)
	if cap(s.partial) < n {
		s.partial = make([][]float64, n)
	}
	s.partial = s.partial[:n]
	for i := range s.partial {
		s.partial[i] = s.partialBuf[i*rowStride : i*rowStride+stride : i*rowStride+rowStride]
	}
	return s.partial
}

// index returns the scratch's reusable index, rebuilt in place over the
// parallel outcome and probability slices.
func (s *Scratch) index(n int, outs []bitstr.Bits, probs []float64) *dist.Index {
	if cap(s.entries) < len(outs) {
		s.entries = make([]dist.Entry, len(outs))
	}
	s.entries = s.entries[:len(outs)]
	for i := range s.entries {
		s.entries[i] = dist.Entry{X: outs[i], P: probs[i]}
	}
	if s.ix == nil {
		s.ix = new(dist.Index)
	}
	return s.ix.Reset(n, s.entries)
}

// packed returns the scratch's reusable packed view, rebuilt in place from
// the given index.
func (s *Scratch) packed(ix *dist.Index) *dist.Packed {
	if s.pk == nil {
		s.pk = new(dist.Packed)
	}
	return s.pk.Reset(ix)
}

// ablationSlabs returns `workers` zeroed N×stride A slabs for the
// DisableFilter multi-worker path, carved out of one reused backing buffer so
// a warmed-up session pays no per-call slab allocation. (Slabs are not
// cache-line padded: unlike the CHS rows, each slab is large and written
// across its whole extent, so boundary false sharing is negligible.)
func (s *Scratch) ablationSlabs(workers, n, stride int) [][]float64 {
	size := n * stride
	s.slabBuf = growFloats(s.slabBuf, workers*size)
	zeroFloats(s.slabBuf)
	if cap(s.slabs) < workers {
		s.slabs = make([][]float64, workers)
	}
	s.slabs = s.slabs[:workers]
	for w := 0; w < workers; w++ {
		s.slabs[w] = s.slabBuf[w*size : (w+1)*size : (w+1)*size]
	}
	return s.slabs
}

// Session is reusable reconstruction state: one validated set of Options plus
// every scratch buffer the pipeline needs — flattened outcome/probability
// slices, the engine Scratch, and the output distribution. After the first
// reconstruction warms the buffers up, repeated Reconstruct calls on
// similarly sized problems allocate nothing (the TopM truncation path and the
// DisableFilter multi-worker ablation still allocate small sort/slab state).
//
// The returned Result — including Out, GlobalCHS, and Weights — is owned by
// the session and overwritten by the next Reconstruct call; callers that need
// it longer copy what they keep. A Session is not safe for concurrent use:
// the scheduler pools sessions, handing each request its own.
type Session struct {
	opts Options

	entries []dist.Entry // the TopM head and tail, in flatten's orders
	outs    []bitstr.Bits
	probs   []float64

	prob    Problem
	scratch Scratch

	outEntries []dist.Entry // the output's storage
	out        dist.Dist
	res        Result
}

// NewSession validates the options once and returns a reusable session.
// Invalid options — negative radius or TopM, an unknown weight scheme, an
// unknown or streaming-only engine — come back as errors; this is the single
// validation point the facades and the scheduler rely on.
func NewSession(opts Options) (*Session, error) {
	if err := ValidateOptions(opts); err != nil {
		return nil, err
	}
	return &Session{opts: opts}, nil
}

// ValidateOptions performs the full option validation NewSession (and
// Session.Reconfigure) apply: radius and TopM signs, the weight scheme, and
// the engine name against Lookup's table.
func ValidateOptions(opts Options) error {
	if opts.Radius < 0 {
		return fmt.Errorf("core: negative radius %d", opts.Radius)
	}
	if opts.TopM < 0 {
		return fmt.Errorf("core: negative TopM %d", opts.TopM)
	}
	switch opts.Weights {
	case InverseCHS, UniformWeight, ExpDecay:
	default:
		return fmt.Errorf("core: unknown weight scheme %d", opts.Weights)
	}
	return ValidateEngine(opts.Engine)
}

// Options returns the session's validated options.
func (s *Session) Options() Options { return s.opts }

// CompatibleWith reports whether the session, as configured, already serves
// requests with exactly the given options. A compatible session needs no
// reconfiguration; an incompatible one is still one Reconfigure call away
// from serving the request — none of the session's scratch state depends on
// the options, only on problem size. The scheduler uses this pair to reuse
// pooled warm sessions across requests with differing per-request options
// instead of erroring or rebuilding scratch from scratch.
func (s *Session) CompatibleWith(opts Options) bool { return s.opts == opts }

// Reconfigure revalidates and swaps the session's options in place, keeping
// every warmed-up scratch buffer. Invalid options are rejected with the same
// errors as NewSession and leave the session unchanged. The cost is a few
// engine-name lookups — far below rebuilding a warm session.
func (s *Session) Reconfigure(opts Options) error {
	if s.opts == opts {
		return nil
	}
	if err := ValidateOptions(opts); err != nil {
		return err
	}
	s.opts = opts
	return nil
}

// Reconstruct applies HAMMER to the input distribution, reusing the session's
// buffers. The input is treated as already normalized and is not modified.
// The context cancels the parallel scoring scans; on cancellation the error
// is ctx.Err() and the session remains reusable. The result is owned by the
// session (see the type comment).
func (s *Session) Reconstruct(ctx context.Context, in *dist.Dist) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in == nil || in.Len() == 0 {
		return nil, errors.New("core: cannot reconstruct empty distribution")
	}
	n := in.NumBits()
	maxD := s.opts.radius(n)
	outs, probs, tail := s.flatten(in)
	// TopM truncation already happened in flatten, so the workload carries the
	// scored support directly; auto-selection budgets exactly the pairs the
	// engine will visit.
	eng, err := resolve(s.opts.Engine, cost.Workload{Support: len(outs), Bits: n, Radius: maxD})
	if err != nil {
		return nil, err
	}
	s.prob = Problem{
		NumBits:       n,
		Outs:          outs,
		Probs:         probs,
		MaxD:          maxD,
		Scheme:        s.opts.Weights,
		DisableFilter: s.opts.DisableFilter,
		Workers:       s.opts.workers(),
	}
	chs, w, scores, err := eng.Score(ctx, &s.prob, &s.scratch)
	if err != nil {
		return nil, err
	}
	s.res = Result{Out: s.finish(n, outs, scores, tail), GlobalCHS: chs, Weights: w, Radius: maxD, Engine: eng.Name()}
	return &s.res, nil
}

// finish is the scoring epilogue of Reconstruct and CombineStripes: it
// writes the scores of outs into the session's output entries, adds the
// truncated tail scored as isolated (L(x) = Pr(x)²), and normalizes. Every
// output bit depends on the order the total is summed in, and cached
// response bodies are pinned to this one: outs ascending, then the tail in
// rank order. The tail then sorts into place.
func (s *Session) finish(n int, outs []bitstr.Bits, scores []float64, tail []dist.Entry) *dist.Dist {
	es := s.outEntries[:0]
	var total float64
	for i, x := range outs {
		es = append(es, dist.Entry{X: x, P: scores[i]})
		total += scores[i]
	}
	for _, e := range tail {
		es = append(es, dist.Entry{X: e.X, P: e.P * e.P})
		total += e.P * e.P
	}
	if len(tail) > 0 {
		slices.SortFunc(es, byOutcome)
	}
	s.outEntries = es
	return s.out.Reset(n, es, total).Normalize()
}

// byOutcome orders entries by ascending outcome.
func byOutcome(a, b dist.Entry) int { return cmp.Compare(a.X, b.X) }

// flatten extracts parallel outcome/probability slices in deterministic
// ascending outcome order into the session's buffers, reading the input's
// entries in place. When TopM is active and the support is larger, only the
// TopM most probable outcomes are returned and the rest come back as the
// tail (in descending-probability order, the order the tail-scoring loop
// consumes them in). The orders are exactly those of the historical one-shot
// path, so reconstructions stay bit-identical.
func (s *Session) flatten(d *dist.Dist) ([]bitstr.Bits, []float64, []dist.Entry) {
	flat := d.Entries()
	var tail []dist.Entry
	if topM := s.opts.TopM; topM > 0 && len(flat) > topM {
		// Stable rank-order sort of a copy, then restore ascending order
		// within the head — the same two sorts (over the same starting
		// order) TopK and the historical flattenTop performed. Outcomes are
		// unique, so both orders are total and the results are identical
		// permutations regardless of algorithm.
		s.entries = append(s.entries[:0], flat...)
		slices.SortStableFunc(s.entries, dist.CompareByProb)
		head := s.entries[:topM]
		slices.SortFunc(head, byOutcome)
		flat, tail = head, s.entries[topM:]
	}
	s.outs = s.outs[:0]
	s.probs = s.probs[:0]
	for _, e := range flat {
		s.outs = append(s.outs, e.X)
		s.probs = append(s.probs, e.P)
	}
	return s.outs, s.probs, tail
}
