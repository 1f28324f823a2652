// Stripe planning for the triangular pair scan. The reconstruction engines
// enumerate every unordered pair of ranked outcomes exactly once, at the
// higher-probability (lower-rank) member: rank i owns the N-1-i pairs it
// forms with the ranks after it. Equal rank counts are therefore maximally
// unbalanced — the first stripe would own quadratically more pairs than the
// last — so stripes are cut from the triangular prefix sums instead: each
// stripe is a contiguous rank range [Lo, Hi) carrying a near-equal share of
// the N(N-1)/2 unordered pairs. One plan drives both sharding layers: the
// in-process striped engine passes and the over-the-wire stripe assignments
// fanned to replicas by internal/shard.
package dist

// Stripe is one contiguous rank range [Lo, Hi) of the ranked triangular
// scan. Pairs counts the unordered pairs the range owns — pairs whose
// lower-rank member falls inside it — so summing Pairs over a plan's stripes
// gives exactly N(N-1)/2: every pair owned once, none twice.
type Stripe struct {
	Lo, Hi int
	Pairs  int64
}

// StripePlan partitions the ranked triangular scan over n outcomes into k
// contiguous stripes of near-equal pair work. The zero value is empty; build
// plans with NewStripePlan or rebuild in place with Reset (allocation-free
// after warm-up, like the other reusable dist structures).
type StripePlan struct {
	n       int
	stripes []Stripe
}

// triPairs returns the number of unordered pairs among m items: C(m, 2).
func triPairs(m int) int64 {
	if m < 2 {
		return 0
	}
	return int64(m) * int64(m-1) / 2
}

// PairsOwned returns the number of unordered pairs the rank range [lo, hi)
// owns in an n-outcome triangular scan: the pairs whose lower-rank member
// lies in the range. It is the closed form the planner balances against —
// C(n-lo, 2) - C(n-hi, 2) — and the quantity the cost model prices a remote
// stripe by.
func PairsOwned(n, lo, hi int) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	return triPairs(n-lo) - triPairs(n-hi)
}

// NewStripePlan builds a pair-balanced plan of k stripes over n ranked
// outcomes. k is clamped to [1, max(n, 1)], so every stripe in the returned
// plan is non-empty (except the single stripe of an empty scan).
func NewStripePlan(n, k int) *StripePlan {
	return new(StripePlan).Reset(n, k)
}

// Reset rebuilds the plan in place for n outcomes and k stripes, reusing the
// stripe slice of previous builds. The receiver is returned for chaining.
//
// The planner is a single greedy pass over ranks: rank i carries pair weight
// n-1-i, and each stripe closes once it has accumulated its proportional
// share ceil(remaining pairs / remaining stripes) of the pairs still
// unassigned — recomputed per stripe, so rounding error never accumulates
// into the tail. Two boundary guards keep every stripe non-empty: a stripe
// always takes at least one rank, and never eats into the one-rank-per-stripe
// reserve of the stripes after it.
func (p *StripePlan) Reset(n, k int) *StripePlan {
	if n < 0 {
		n = 0
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = max(n, 1)
	}
	p.n = n
	if cap(p.stripes) < k {
		p.stripes = make([]Stripe, k)
	}
	p.stripes = p.stripes[:k]
	remaining := triPairs(n)
	lo := 0
	for s := 0; s < k; s++ {
		left := int64(k - s)
		target := (remaining + left - 1) / left // ceil(remaining / stripes left)
		hi := lo
		var pairs int64
		// Last stripe takes everything; earlier stripes accumulate to target
		// but leave one rank for each stripe after them.
		if s == k-1 {
			hi = n
			pairs = remaining
		} else {
			reserve := n - (k - 1 - s)
			for hi < reserve && (hi == lo || pairs < target) {
				pairs += int64(n - 1 - hi)
				hi++
			}
		}
		p.stripes[s] = Stripe{Lo: lo, Hi: hi, Pairs: pairs}
		remaining -= pairs
		lo = hi
	}
	return p
}

// NumRanks returns the number of ranked outcomes the plan partitions.
func (p *StripePlan) NumRanks() int { return p.n }

// Len returns the number of stripes.
func (p *StripePlan) Len() int { return len(p.stripes) }

// Stripe returns stripe i.
func (p *StripePlan) Stripe(i int) Stripe { return p.stripes[i] }

// Stripes returns all stripes in rank order. The slice is shared with the
// plan; callers must not mutate it.
func (p *StripePlan) Stripes() []Stripe { return p.stripes }

// TotalPairs returns the total unordered pairs across all stripes — always
// exactly C(n, 2).
func (p *StripePlan) TotalPairs() int64 {
	var t int64
	for _, s := range p.stripes {
		t += s.Pairs
	}
	return t
}

// Balance returns the plan's load imbalance: the heaviest stripe's pair
// count divided by the ideal equal share (total pairs / stripes). 1.0 is
// perfect balance; the shard benchmark's CI gate holds plans at the gate
// workload within 5% of ideal. Degenerate plans with no pairs report 1.0.
func (p *StripePlan) Balance() float64 {
	total := p.TotalPairs()
	if total == 0 || len(p.stripes) == 0 {
		return 1.0
	}
	var maxPairs int64
	for _, s := range p.stripes {
		if s.Pairs > maxPairs {
			maxPairs = s.Pairs
		}
	}
	ideal := float64(total) / float64(len(p.stripes))
	return float64(maxPairs) / ideal
}
