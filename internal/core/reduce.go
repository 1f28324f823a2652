package core

import (
	"sync/atomic"

	"repro/internal/dist"
)

// The asynchronous, atomic-free reduction tree that merges per-stripe
// partials for the striped blocked engine and, through
// Session.CombineStripes, for the over-the-wire shard coordinator.
//
// Layout: for S stripes the tree is a binary heap of 2S-1 nodes over one
// rows buffer — internal nodes 0..S-2, the leaf for stripe s at index
// S-1+s, parent(i) = (i-1)/2. Stripe s's scoring pass writes leaf S-1+s;
// fold(parent, left, right) combines two finished children into their
// parent.
//
// Invariants (docs/architecture.md states these for operators; the -race
// tests enforce them):
//
//   - A tree node is written by exactly one goroutine: each leaf by its
//     stripe's pass, each internal node by whichever child's goroutine
//     arrives at it second — the "folder". Ownership is handed off through
//     a single atomic arrival latch per internal node; the hot float
//     accumulator rows themselves are never touched by atomics or locks.
//   - There is no global barrier: a stripe that finishes early folds as far
//     up the tree as completed siblings allow and retires, while slower
//     stripes are still scanning. The caller blocks only on the root.
//   - The fold result is deterministic for a fixed stripe count: the tree
//     shape fixes exactly which partials are added in which grouping, so
//     arrival order cannot change a single bit of the output. A bottom-up
//     sequential fold over the same leaves (foldTree, used by the wire
//     coordinator's merge) produces the bit-identical root.
//
// The happens-before edge carrying a child's rows to its folder is the pair
// of atomic latch operations: a goroutine's leaf/fold writes precede its
// Add(1); the folder's Add(1) returning 2 observes the sibling's increment,
// so the sibling's writes are visible (Go memory model: sequentially
// consistent atomics).

// runStripeTree executes run(stripe) for each of S stripes on concurrent
// goroutines (stripe 0 on the calling goroutine) and merges their outputs
// bottom-up through fold, returning once the root fold has completed. The
// latches slice must hold S-1 zeroed latches — one per internal node —
// typically from Scratch.stripeLatches so a warm session reuses it. run must
// observe cancellation itself (the engines' passes poll ctx); a canceled
// pass still climbs, so the tree always terminates and the caller checks
// ctx.Err() afterwards, exactly like the old barrier merge did.
func runStripeTree(S int, latches []atomic.Int32, run func(stripe int), fold func(parent, left, right int)) {
	if S <= 1 {
		run(0)
		return
	}
	rootDone := make(chan struct{})
	// complete climbs from a finished node toward the root: the second
	// arriver at each internal node folds both children and continues; the
	// first arriver retires immediately.
	complete := func(node int) {
		for node != 0 {
			parent := (node - 1) / 2
			if latches[parent].Add(1) != 2 {
				return
			}
			fold(parent, 2*parent+1, 2*parent+2)
			node = parent
		}
		close(rootDone)
	}
	for st := 1; st < S; st++ {
		go func(st int) {
			run(st)
			complete(S - 1 + st)
		}(st)
	}
	run(0)
	complete(S - 1)
	<-rootDone
}

// foldTree folds a heap-laid-out rows buffer (2S-1 rows, leaves pre-filled)
// bottom-up into rows[0] on the calling goroutine. Because it applies the
// identical fold (addInto) over the identical tree shape, its root is
// bit-identical to runStripeTree's for the same leaf contents — this is the
// merge the shard coordinator applies to replica partials, and the property
// the in-process/over-the-wire 1e-12 pins rest on.
func foldTree(rows [][]float64) {
	for p := len(rows)/2 - 1; p >= 0; p-- {
		addInto(rows[p], rows[2*p+1], rows[2*p+2])
	}
}

// addInto writes the elementwise sum of a and b into dst — the single fold
// kernel every reduction-tree merge (in-process and wire) runs.
func addInto(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// stripeLatches returns n zeroed arrival latches backed by a reused buffer.
func (s *Scratch) stripeLatches(n int) []atomic.Int32 {
	if cap(s.latches) < n {
		s.latches = make([]atomic.Int32, n)
	}
	s.latches = s.latches[:n]
	for i := range s.latches {
		s.latches[i].Store(0)
	}
	return s.latches
}

// stripePlan returns the scratch's reusable stripe plan, rebuilt in place
// for n ranks and k stripes.
func (s *Scratch) stripePlan(n, k int) *dist.StripePlan {
	if s.plan == nil {
		s.plan = new(dist.StripePlan)
	}
	return s.plan.Reset(n, k)
}
