package dist

import (
	"testing"
)

// checkPlanInvariants verifies the full partition contract for one (n, k):
// stripes are contiguous, cover [0, n) exactly, per-stripe Pairs match the
// triangular closed form, and the total is exactly C(n, 2) — every unordered
// pair owned by exactly one stripe, no loss, no double count.
func checkPlanInvariants(t *testing.T, p *StripePlan, n, k int) {
	t.Helper()
	stripes := p.Stripes()
	if len(stripes) == 0 {
		t.Fatalf("plan(n=%d, k=%d): no stripes", n, k)
	}
	if len(stripes) > max(n, 1) {
		t.Fatalf("plan(n=%d, k=%d): %d stripes exceeds rank count", n, k, len(stripes))
	}
	lo := 0
	var total int64
	for i, s := range stripes {
		if s.Lo != lo {
			t.Fatalf("plan(n=%d, k=%d): stripe %d starts at %d, want %d (gap or overlap)", n, k, i, s.Lo, lo)
		}
		if s.Hi < s.Lo || s.Hi > n {
			t.Fatalf("plan(n=%d, k=%d): stripe %d range [%d,%d) out of bounds", n, k, i, s.Lo, s.Hi)
		}
		if n > 0 && s.Hi == s.Lo {
			t.Fatalf("plan(n=%d, k=%d): stripe %d empty", n, k, i)
		}
		if want := PairsOwned(n, s.Lo, s.Hi); s.Pairs != want {
			t.Fatalf("plan(n=%d, k=%d): stripe %d pairs = %d, want %d", n, k, i, s.Pairs, want)
		}
		total += s.Pairs
		lo = s.Hi
	}
	if lo != n {
		t.Fatalf("plan(n=%d, k=%d): stripes end at %d, want %d", n, k, lo, n)
	}
	if want := triPairs(n); total != want {
		t.Fatalf("plan(n=%d, k=%d): total pairs = %d, want %d", n, k, total, want)
	}
	if got := p.TotalPairs(); got != total {
		t.Fatalf("plan(n=%d, k=%d): TotalPairs() = %d, want %d", n, k, got, total)
	}
}

// checkPairOwnership brute-forces every unordered pair (i, j), i < j, and
// counts the stripes owning its lower-rank member i. Exactly one stripe must
// own each pair. Quadratic, so only used for small n; the closed-form check
// in checkPlanInvariants covers large n.
func checkPairOwnership(t *testing.T, p *StripePlan, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		owners := 0
		for _, s := range p.Stripes() {
			if s.Lo <= i && i < s.Hi {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("plan(n=%d): rank %d (and its %d pairs) owned by %d stripes, want 1", n, i, n-1-i, owners)
		}
	}
}

func TestStripePlanPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 64, 1000, 4000} {
		for _, k := range []int{1, 2, 3, 4, 8, 16, 64, 5000} {
			p := NewStripePlan(n, k)
			checkPlanInvariants(t, p, n, k)
		}
	}
}

func TestStripePlanBalance(t *testing.T) {
	// At the CI gate workload shape (support 4000, 8 stripes) the plan must
	// sit within 5% of the ideal equal pair share — the same bound
	// cmd/microbench's shard suite gates in CI.
	p := NewStripePlan(4000, 8)
	if b := p.Balance(); b > 1.05 {
		t.Fatalf("Balance() = %v at n=4000 k=8, want <= 1.05", b)
	}
	// Equal-rank-count striping would put ~23%% of all pairs in the first of
	// 8 stripes (vs the 12.5%% ideal); make sure the plan is meaningfully
	// better than that, not just barely legal.
	first := p.Stripe(0)
	naive := PairsOwned(4000, 0, 4000/8)
	if first.Pairs >= naive {
		t.Fatalf("first stripe owns %d pairs, no better than naive rank split %d", first.Pairs, naive)
	}
	if b := NewStripePlan(0, 4).Balance(); b != 1.0 {
		t.Fatalf("Balance() of empty plan = %v, want 1.0", b)
	}
}

func TestStripePlanResetReuses(t *testing.T) {
	p := NewStripePlan(1000, 8)
	allocs := testing.AllocsPerRun(100, func() {
		p.Reset(1000, 8)
	})
	if allocs > 0 {
		t.Fatalf("Reset allocated %v times per run, want 0", allocs)
	}
	checkPlanInvariants(t, p, 1000, 8)
	// Shrinking and regrowing within capacity stays allocation-free too.
	p.Reset(10, 2)
	checkPlanInvariants(t, p, 10, 2)
	p.Reset(1000, 8)
	checkPlanInvariants(t, p, 1000, 8)
}

func TestPairsOwned(t *testing.T) {
	// Brute-force cross-check of the closed form.
	for n := 0; n <= 12; n++ {
		for lo := -1; lo <= n+1; lo++ {
			for hi := lo; hi <= n+1; hi++ {
				var want int64
				for i := max(lo, 0); i < min(hi, n); i++ {
					want += int64(n - 1 - i)
				}
				if got := PairsOwned(n, lo, hi); got != want {
					t.Fatalf("PairsOwned(%d, %d, %d) = %d, want %d", n, lo, hi, got, want)
				}
			}
		}
	}
}

// FuzzStripePlan fuzzes (support, stripe count) and proves the partition
// contract: every unordered pair of the triangular scan is owned by exactly
// one stripe — no pair lost, none double-counted — with brute-force pair
// ownership confirmed on small supports.
func FuzzStripePlan(f *testing.F) {
	f.Add(0, 1)
	f.Add(1, 1)
	f.Add(2, 2)
	f.Add(17, 4)
	f.Add(4000, 8)
	f.Add(100, 1000)
	f.Add(-5, -3)
	f.Fuzz(func(t *testing.T, n, k int) {
		if n > 1<<16 {
			n = n % (1 << 16)
		}
		p := NewStripePlan(n, k)
		cn, ck := n, k
		if cn < 0 {
			cn = 0
		}
		checkPlanInvariants(t, p, cn, ck)
		if cn <= 256 {
			checkPairOwnership(t, p, cn)
		}
		// Rebuilding in place must produce the identical plan.
		q := NewStripePlan(1, 1).Reset(n, k)
		for i, s := range p.Stripes() {
			if q.Stripe(i) != s {
				t.Fatalf("Reset plan diverges at stripe %d: %+v vs %+v", i, q.Stripe(i), s)
			}
		}
	})
}
