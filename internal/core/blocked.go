package core

import (
	"context"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// blockedEngine computes Algorithm 1 in one fused triangular pass over
// unordered pairs of the rank-ordered index (dist.Index). Two
// structural changes make it faster than the exact reference while
// producing the same reconstruction up to float64 rounding:
//
//   - Fusion: the exact engine walks all pairs twice — once to accumulate
//     the global CHS (step 1) and once to score neighborhoods against the
//     finished weight vector (step 3). But a neighborhood score is linear in
//     the per-distance weights: S(x) = Pr(x) + Σ_d W[d]·A[x][d], where
//     A[x][d] is the admitted neighborhood strength of x at distance d. The
//     engine accumulates A and the global CHS together in one triangular
//     pass, then applies the weights after the fact, halving the number of
//     Hamming-distance evaluations.
//
//   - Pruning: only pairs within the radius contribute, and the engine
//     visits a candidate set that provably contains them all, chosen per
//     request from two generators by their exact candidate counts
//     (blockedScan): the weight window of the packed view (dist.Packed) —
//     |popcount(x) − popcount(y)| ≤ d(x,y), so each row scans only the
//     2·maxD+1 weight buckets around its own — or, at small radii, the block
//     multi-index (dist.MultiIndex), where each row scans only the outcomes
//     sharing one of its maxD+1 block values.
//
// The pass walks outcomes in descending probability (the index's rank
// order), partitioned across workers as pair-balanced contiguous rank
// stripes (dist.StripePlan). For a pair (i, j) with rank i < j, only the
// higher-probability side i can receive filtered credit, so each stripe
// writes only the A-rows of the ranks it owns — no synchronization needed.
// Each stripe sums its CHS partial into its own leaf of the reduction tree
// (reduce.go), which one goroutine folds once every stripe has returned; the
// DisableFilter ablation credits both sides, so that (rare) path keeps
// per-node A slabs — pooled in the Scratch like every other buffer — and
// folds them through the same tree.
//
// The index, the scan structures, the stripe plan, the tree rows, and the A
// matrix live in the Scratch, rebuilt in place per call, so a warmed-up
// session pays no allocation for any of them.
type blockedEngine struct{}

func (blockedEngine) Name() string { return EngineBlocked }

func (blockedEngine) Score(ctx context.Context, p *Problem, s *Scratch) ([]float64, []float64, []float64, error) {
	N := len(p.Outs)
	maxD := p.MaxD
	stride := maxD + 1
	done := ctx.Done()

	ix := s.index(p.NumBits, p.Outs, p.Probs)
	scan := s.blockedScan(ix, maxD, p.DisableFilter)
	ranked := ix.Ranked()

	// A[r*stride+d] is the admitted neighborhood strength of the rank-r
	// outcome at distance d. With the filter on, row r is written only by
	// the stripe that owns rank r; the ablation path uses one pooled slab
	// per tree node instead and folds them like the CHS rows.
	S := max(min(p.Workers, N), 1) // stripes
	nodes := 2*S - 1
	shared := !p.DisableFilter || S == 1
	var acc []float64
	var slabs [][]float64
	if shared {
		s.acc = growFloats(s.acc, N*stride)
		acc = s.acc
		zeroFloats(acc)
	} else {
		slabs = s.ablationSlabs(nodes, N, stride)
	}
	treeRows := s.chsRows(nodes, stride)
	if S == 1 {
		scan.pass(done, maxD, p.DisableFilter, treeRows[0], acc, 0, N)
	} else {
		plan := s.stripePlan(N, S)
		accShared := acc // captured read-only: keeps acc itself off the heap
		parallelRange(S, S, func(_, st, _ int) {
			sp := plan.Stripe(st)
			rows := accShared
			if !shared {
				rows = slabs[S-1+st]
			}
			scan.pass(done, maxD, p.DisableFilter, treeRows[S-1+st], rows, sp.Lo, sp.Hi)
		})
		foldTree(treeRows)
		if !shared {
			foldTree(slabs)
			acc = slabs[0]
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	chs, w, scores := s.scoreRanked(ranked, treeRows[0], acc, maxD, p.Scheme)
	return chs, w, scores, nil
}

// scoreRanked is the fused pass's weight-and-score epilogue, shared by the
// blocked engine and CombineStripes. From the folded CHS and the per-rank
// admitted-strength rows acc it derives the weights and scores each ranked
// outcome, S(x) = Pr(x) + Σ_d W[d]·A[x][d], writing L(x) = Pr(x)·S(x) at the
// outcome's flattened position.
func (s *Scratch) scoreRanked(ranked []dist.IndexEntry, folded, acc []float64, maxD int, scheme WeightScheme) (chs, w, scores []float64) {
	stride := maxD + 1
	s.chs = growFloats(s.chs, stride)
	chs = s.chs
	copy(chs, folded)

	s.w = growFloats(s.w, stride)
	w = weightsInto(s.w, chs, maxD, scheme)

	s.scores = growFloats(s.scores, len(ranked))
	scores = s.scores
	for r := range ranked {
		e := &ranked[r]
		sc := e.P
		row := acc[r*stride : r*stride+stride]
		for d := 0; d <= maxD; d++ {
			sc += w[d] * row[d]
		}
		scores[e.Ord] = sc * e.P
	}
	return chs, w, scores
}

// blockedScan is one reconstruction's candidate generator: the block
// multi-index when it is built, the packed weight window otherwise.
type blockedScan struct {
	ix *dist.Index
	pk *dist.Packed
	mi *dist.MultiIndex
}

// blockedScan picks and builds the candidate generator for a scan of ix at
// radius maxD. Both candidate counts are exact and cheap before anything is
// built — O(n·maxD) from the weight-bucket sizes, O((maxD+1)·N) from the
// block histograms — and the multi-index runs when it visits at most half
// the window's pairs; otherwise the window runs. The choice
// depends only on the outcome set and the radius, so every stripe and every
// replica of one support makes the same one. The DisableFilter ablation
// always takes the window.
func (s *Scratch) blockedScan(ix *dist.Index, maxD int, disableFilter bool) blockedScan {
	if !disableFilter && maxD < ix.NumBits() {
		if s.mi == nil {
			s.mi = new(dist.MultiIndex)
		}
		if _, built := s.mi.Reset(ix, maxD, ix.WindowPairs(maxD)/2); built {
			return blockedScan{ix: ix, mi: s.mi}
		}
	}
	return blockedScan{ix: ix, pk: s.packed(ix)}
}

// pass runs the scan over the rank stripe [lo, hi) under blockedPass's
// contract.
func (sc blockedScan) pass(done <-chan struct{}, maxD int, disableFilter bool, local, rows []float64, lo, hi int) {
	if sc.mi != nil {
		multiIndexPass(done, sc.ix, sc.mi, maxD, local, rows, lo, hi)
		return
	}
	blockedPass(done, sc.ix, sc.pk, maxD, disableFilter, local, rows, lo, hi)
}

// multiIndexPass is blockedPass over the block multi-index: the same rank
// stripe [lo, hi), the same CHS partial and admitted-strength rows, from a
// candidate set that holds every pair within the radius. Most candidates are
// rejected by one popcount and compare; the rarely taken branch for an
// admitted pair credits it only in the first block on which the two outcomes
// agree — a pair may share the buckets of several blocks, or collide in a
// hashed bucket without agreeing — and applies the filter's tie rule: a
// candidate of equal probability earns CHS credit only. The candidate
// search runs nextWithin's AVX-512 body where the host has one, in a loop of
// its own: the Go loop stays inlined, and its registers are not spilled
// around the assembly's calls.
func multiIndexPass(done <-chan struct{}, ix *dist.Index, mi *dist.MultiIndex, maxD int, local, rows []float64, lo, hi int) {
	ranked := ix.Ranked()
	stride := maxD + 1
	masks := mi.Masks()
	for i := lo; i < hi; i++ {
		if canceled(done) {
			return
		}
		e := &ranked[i]
		x, pe := e.X, e.P
		// Self pair: d=0 contributes P(x) once per x.
		local[0] += pe
		dst := rows[i*stride : i*stride+stride]
		for b := range masks {
			words, probs := mi.After(b, i)
			probs = probs[:len(words)]
			if useAVX512 {
				for j := nextWithinAVX512(x, words, maxD); j < len(words); j += 1 + nextWithinAVX512(x, words[j+1:], maxD) {
					creditPair(x^words[j], probs[j], pe, b, masks, local, dst)
				}
				continue
			}
			for j := nextWithin(x, words, maxD); j < len(words); j += 1 + nextWithin(x, words[j+1:], maxD) {
				creditPair(x^words[j], probs[j], pe, b, masks, local, dst)
			}
		}
	}
}

// creditPair credits a candidate within the radius of the outer outcome,
// v being their XOR and p the candidate's probability: nothing unless b is
// the first block on which the two agree, and otherwise the pair's CHS
// credit and, for a candidate less probable than pe, the outer row's
// admitted strength.
func creditPair(v uint64, p, pe float64, b int, masks []uint64, local, dst []float64) {
	if firstAgreement(v, masks) != b {
		return
	}
	d := bits.OnesCount64(v)
	local[d] += pe + p
	if p < pe {
		dst[d] += p
	}
}

// nextWithin returns the index of the first word within Hamming distance
// maxD of x, or len(words) if there is none. It is the multi-index scan's
// hot loop. On amd64 hosts with AVX-512 VPOPCNTDQ, nextWithinAVX512 runs in
// its place and returns the same index, eight words at a time; this loop is
// the body everywhere else and the reference the assembly is tested
// against. The compiler inlines it at both of multiIndexPass's call sites
// (`go build -gcflags=-m` reports both). A dispatch inside it would cost it
// that inlining, so multiIndexPass chooses the body instead.
func nextWithin(x uint64, words []uint64, maxD int) int {
	for j, y := range words {
		if bits.OnesCount64(x^y) <= maxD {
			return j
		}
	}
	return len(words)
}

// firstAgreement returns the first block on which two outcomes differing by
// v agree; a pair within the radius always has one.
func firstAgreement(v uint64, masks []uint64) int {
	for b, m := range masks {
		if v&m == 0 {
			return b
		}
	}
	return len(masks)
}

// blockedPass runs one stripe's share of the flat fused pass — the
// contiguous rank range [lo, hi) — accumulating its CHS partial into local
// and admitted neighborhood strengths into rows (the shared A matrix on the
// filtered path, a private slab on the ablation path). The same pass serves
// the in-process striped engine and a replica's /v1/shard/reconstruct
// stripe.
//
// The filtered hot loop is branchless and chain-split. Three observations
// make that possible:
//
//   - Every candidate ranks after the outer outcome, so its probability is
//     at most pe — and the candidates with probability EQUAL to pe (which
//     the filter excludes from credit) form a contiguous prefix of each
//     bucket suffix, because buckets are ordered by descending probability.
//     Peeling that tie prefix (frequent on integer shot counts) into a count
//     bank of its own leaves a strict p < pe suffix, deleting the filter
//     compare from the inner loop.
//
//   - With ties peeled, an admitted candidate's full effect is two
//     per-distance reductions: a pair count (the outer side's CHS credit is
//     pe × count) and a probability sum (the candidate side's CHS credit
//     and, identically, the outer row's admitted strength). Counts are
//     integer adds — 1-cycle dependency chains instead of 4-cycle float
//     chains.
//
//   - Banks are indexed by the distance itself, so an excluded distance
//     (d > maxD) lands in a slot the fold never reads instead of passing a
//     data-dependent branch: at wide radii admission is a coin flip per pair
//     and the mispredictions would cost more than the wasted adds.
//
// Each of the 4 tile lanes owns a private (count, sum) bank so the
// accumulation chains of consecutive candidates run in parallel; banks fold
// into the CHS row and the A matrix once per outer outcome — the per-row
// state never leaves L1. Each bucket's candidate suffix starts at a rank
// cursor seeded once per stripe, so no row searches a bucket.
func blockedPass(done <-chan struct{}, ix *dist.Index, pk *dist.Packed, maxD int, disableFilter bool, local, rows []float64, lo0, hi0 int) {
	ranked := ix.Ranked()
	n := pk.NumBits()
	stride := maxD + 1
	words, probs := pk.Words(), pk.Probs()
	// Per-lane banks and the tie bank, stack-resident and indexed by
	// distance: the fold reads slots 0..maxD and zeroes 0..n. 256 slots let
	// the uint8 index prove every access in range, so the hot loop carries
	// no bounds checks.
	var cnt0, cnt1, cnt2, cnt3, tie [256]int32
	var sum0, sum1, sum2, sum3 [256]float64
	// cur[w] starts bucket w's suffix of ranks above the current row. Seeded
	// once for the stripe, it advances by one in the row's own bucket only:
	// every other bucket's suffix is unchanged by one rank step.
	var cur [bitstr.MaxBits + 1]int
	for w := 0; w <= n; w++ {
		cur[w] = pk.SuffixAfter(w, lo0-1)
	}
	var rowBuf [bitstr.MaxBits + 1]float64
	rl := rowBuf[:stride]
	for i := lo0; i < hi0; i++ {
		if canceled(done) {
			return
		}
		e := &ranked[i]
		x, pe := e.X, e.P
		cur[e.W]++
		// Self pair: d=0 contributes P(x) once per x.
		local[0] += pe
		if disableFilter {
			blockedAblationRow(pk, x, pe, i, maxD, local, rl, rows)
			dst := rows[i*stride : i*stride+stride]
			for d, v := range rl {
				dst[d] += v
			}
			continue
		}
		lo, hi := e.W-maxD, e.W+maxD
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		for w := lo; w <= hi; w++ {
			k0 := cur[w]
			_, bhi := pk.Bucket(w)
			// Tie prefix: candidates with p == pe take CHS credit but give
			// and receive no neighborhood credit (the filter admits strictly
			// lower probability only).
			for k0 < bhi && probs[k0] == pe {
				tie[uint8(bits.OnesCount64(x^words[k0]))]++
				k0++
			}
			if k0 >= bhi {
				continue
			}
			cw := words[k0:bhi]
			cp := probs[k0:bhi]
			// Branchless 4-wide tiles: the four XOR+popcounts of a tile are
			// independent chains that pipeline across lanes, and each lane
			// updates its own bank at the slot of its distance.
			m := len(cw)
			cp = cp[:m]
			j := 0
			for ; j+4 <= m; j += 4 {
				d0 := uint8(bits.OnesCount64(x ^ cw[j]))
				d1 := uint8(bits.OnesCount64(x ^ cw[j+1]))
				d2 := uint8(bits.OnesCount64(x ^ cw[j+2]))
				d3 := uint8(bits.OnesCount64(x ^ cw[j+3]))
				cnt0[d0]++
				sum0[d0] += cp[j]
				cnt1[d1]++
				sum1[d1] += cp[j+1]
				cnt2[d2]++
				sum2[d2] += cp[j+2]
				cnt3[d3]++
				sum3[d3] += cp[j+3]
			}
			for ; j < m; j++ {
				d := uint8(bits.OnesCount64(x ^ cw[j]))
				cnt0[d]++
				sum0[d] += cp[j]
			}
		}
		// Fold the banks: admitted pairs at distance d contributed
		// count×pe + sum(p) to the CHS and sum(p) to this row's admitted
		// strength (every non-tie candidate holds p < pe), and ties 2·pe
		// each to the CHS alone. Then zero every slot a distance can reach,
		// the excluded ones above maxD included.
		dst := rows[i*stride : i*stride+stride]
		for d := 0; d < stride; d++ {
			c := cnt0[d] + cnt1[d] + cnt2[d] + cnt3[d]
			ps := sum0[d] + sum1[d] + sum2[d] + sum3[d]
			local[d] += float64(c)*pe + ps + float64(tie[d])*(pe+pe)
			dst[d] += ps
		}
		for d := 0; d <= n; d++ {
			cnt0[d], cnt1[d], cnt2[d], cnt3[d], tie[d] = 0, 0, 0, 0, 0
			sum0[d], sum1[d], sum2[d], sum3[d] = 0, 0, 0, 0
		}
	}
}

// blockedAblationRow scans one outer outcome's candidates with the filter
// disabled (§4.4): both sides of every admitted pair get credit, so the scan
// scatters into other ranks' rows (rl collects the outer side; the caller
// spills it). The ablation exists for fidelity studies, not speed; it keeps
// the flat packed scan but not the branchless tiling.
func blockedAblationRow(pk *dist.Packed, x uint64, pe float64, rank, maxD int, local, rl []float64, rows []float64) {
	n := pk.NumBits()
	stride := maxD + 1
	words, probs, ranks := pk.Words(), pk.Probs(), pk.Ranks()
	for d := range rl {
		rl[d] = 0
	}
	lo, hi := bits.OnesCount64(x)-maxD, bits.OnesCount64(x)+maxD
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	for w := lo; w <= hi; w++ {
		k0 := pk.SuffixAfter(w, rank)
		_, bhi := pk.Bucket(w)
		for k := k0; k < bhi; k++ {
			d := bits.OnesCount64(x ^ words[k])
			if d > maxD {
				continue
			}
			p := probs[k]
			local[d] += pe + p
			rl[d] += p
			rows[int(ranks[k])*stride+d] += pe
		}
	}
}
