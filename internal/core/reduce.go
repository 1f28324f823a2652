package core

import (
	"repro/internal/dist"
)

// The reduction tree that merges per-stripe partials: the blocked engine's
// CHS rows and ablation slabs, the exact engine's CHS rows and, through
// Session.CombineStripes, the over-the-wire shard coordinator's partials.
//
// Layout: for S stripes the tree is a binary heap of 2S-1 rows — internal
// nodes 0..S-2, the leaf for stripe s at index S-1+s, parent(i) = (i-1)/2.
// Stripe s writes only its own leaf (and, on the filtered blocked path, the
// A-rows of the ranks it owns); once every stripe has returned, one
// goroutine folds the heap bottom-up with foldTree. The tree shape fixes
// which partials are added in which grouping, so the root is deterministic
// for a fixed stripe count, and the in-process engines and the wire merge
// give the same bits over the same leaves.

// foldTree folds a heap-laid-out rows buffer (2S-1 rows, leaves pre-filled)
// bottom-up into rows[0] on the calling goroutine: each internal node is the
// elementwise sum of its two children.
func foldTree(rows [][]float64) {
	for p := len(rows)/2 - 1; p >= 0; p-- {
		dst, a, b := rows[p], rows[2*p+1], rows[2*p+2]
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	}
}

// stripePlan returns the scratch's reusable stripe plan, rebuilt in place
// for n ranks and k stripes.
func (s *Scratch) stripePlan(n, k int) *dist.StripePlan {
	if s.plan == nil {
		s.plan = new(dist.StripePlan)
	}
	return s.plan.Reset(n, k)
}
