package cost

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Engine names the model knows. They mirror the core registry's batch and
// streaming engines, but cost deliberately does not import core: the model is
// pure arithmetic over a Workload, and core consults it for auto-selection —
// the dependency points the other way.
const (
	EngineExact       = "exact"
	EngineBlocked     = "blocked"
	EngineIncremental = "incremental"
)

// Workload describes one reconstruction request in the dimensions the model
// is asymptotic over: unique-outcome support, outcome width in bits, the
// resolved (not zero-default) admission radius, the TopM truncation, and —
// for the incremental engine — how many outcomes changed since the last
// snapshot.
type Workload struct {
	// Support is the number of unique outcomes N. When TopM is positive and
	// smaller, the pairwise work runs over min(Support, TopM) outcomes;
	// Predict applies that truncation itself, so callers pass the raw
	// support.
	Support int
	// Bits is the outcome width n.
	Bits int
	// Radius is the resolved maximum admitted Hamming distance (callers
	// resolve the zero-means-default rule before building a Workload).
	Radius int
	// TopM, when positive, truncates the pairwise work to the TopM most
	// probable outcomes.
	TopM int
	// Delta is the number of outcomes whose mass changed since the last
	// snapshot; only the incremental engine reads it. Zero predicts a
	// cached (delta-free) snapshot.
	Delta int
}

// effSupport is the support the pairwise pass actually runs over.
func (w Workload) effSupport() float64 {
	n := w.Support
	if w.TopM > 0 && w.TopM < n {
		n = w.TopM
	}
	if n < 0 {
		n = 0
	}
	return float64(n)
}

// Coeffs are one engine's fitted constants, all in nanoseconds per unit of
// the asymptotic term they scale:
//
//	predicted = Setup + PerOutcome·N + pairs·perPair(r, n)
//
// where pairs = N·(N−1)/2 and the per-pair cost decomposes by engine shape:
//
//	exact:       perPair = PerPairFull + PerAdmit·A(r,n)
//	blocked:     perPair = PerCand·Cand(r,n) + PerAdmit·A(r,n)
//	incremental: perPair = PerCand·Cand(r,n) + PerAdmit·A(r,n), with pairs
//	             replaced by Delta·N (changed rows × outcomes)
//
// A(r,n) is the probability a uniform random pair lies within Hamming
// distance r (the admitted fraction — the accumulate work), and Cand(r,n)
// the fraction of pairs the engine's candidate generator visits (the visit
// work): for incremental the popcount weight window's (candidateFrac), for
// blocked whichever of the weight window and the block multi-index its scan
// selection picks (blockedCandFrac). Exact pays PerPairFull on every pair
// because it popcounts unconditionally. Blocked's window scan is
// branch-free (admitted pairs cost the same as excluded ones) and only its
// multi-index scan branches on admission, so its fitted PerAdmit is small.
//
// All coefficients must be non-negative (Fit clamps), which together with
// the monotone shape fractions makes predictions monotone non-decreasing in
// support and radius — a property the fuzz suite pins.
type Coeffs struct {
	Setup       float64 `json:"setup_ns"`
	PerOutcome  float64 `json:"per_outcome_ns"`
	PerPairFull float64 `json:"per_pair_full_ns"`
	PerCand     float64 `json:"per_candidate_pair_ns"`
	PerAdmit    float64 `json:"per_admitted_pair_ns"`
}

// Model maps engine names onto their fitted constants, plus the shard
// coordination constants (shard.go) pricing stripe-sharded runs. A Model is
// immutable after construction; refits build a new one (see SetActive).
type Model struct {
	Engines map[string]Coeffs `json:"engines"`
	Shard   ShardCoeffs       `json:"shard,omitempty"`
}

// Predict returns the predicted reconstruction time in nanoseconds for one
// engine on one workload, and whether the engine is modeled at all.
// Predictions are always finite and strictly positive for modeled engines.
func (m *Model) Predict(engine string, w Workload) (float64, bool) {
	if m == nil {
		return 0, false
	}
	c, ok := m.Engines[engine]
	if !ok {
		return 0, false
	}
	n := w.effSupport()
	bits := clampBits(w.Bits)
	r := clampRadius(w.Radius, bits)
	ns := c.Setup + c.PerOutcome*n
	scale := n * (n - 1) / 2 // unordered pairs
	if engine == EngineIncremental {
		d := float64(w.Delta)
		if d < 0 {
			d = 0
		}
		if d > n {
			d = n
		}
		scale = d * n // changed rows × all outcomes
	}
	ns += scale * perPairNs(engine, c, r, bits)
	if ns < 1 || math.IsNaN(ns) {
		// Degenerate workloads (empty support) still cost something; a
		// floor keeps every prediction positive and finite.
		ns = 1
	}
	return ns, true
}

// PredictDuration is Predict in time.Duration form, saturating instead of
// overflowing on absurd workloads.
func (m *Model) PredictDuration(engine string, w Workload) (time.Duration, bool) {
	ns, ok := m.Predict(engine, w)
	if !ok {
		return 0, false
	}
	if ns > float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64), true
	}
	return time.Duration(ns), true
}

// Choose returns the candidate engine with the lowest predicted cost on the
// workload, its prediction, and whether any candidate was modeled. Ties go
// to the earlier candidate, so a fixed candidate order makes the choice
// deterministic.
func (m *Model) Choose(w Workload, candidates []string) (string, float64, bool) {
	best, bestNs, ok := "", 0.0, false
	for _, name := range candidates {
		ns, modeled := m.Predict(name, w)
		if !modeled {
			continue
		}
		if !ok || ns < bestNs {
			best, bestNs, ok = name, ns, true
		}
	}
	return best, bestNs, ok
}

// Names returns the modeled engine names in deterministic (sorted) order.
func (m *Model) Names() []string {
	names := make([]string, 0, len(m.Engines))
	for name := range m.Engines {
		names = append(names, name)
	}
	sortStrings(names)
	return names
}

// sortStrings is a dependency-free insertion sort; models hold a handful of
// engines.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func clampBits(n int) int {
	if n < 1 {
		return 1
	}
	if n > 64 {
		return 64
	}
	return n
}

func clampRadius(r, bits int) int {
	if r < 0 {
		return 0
	}
	if r > bits {
		return bits
	}
	return r
}

// binomRow returns the probability mass function of Binomial(m, 1/2):
// row[k] = C(m,k)/2^m. Rows are cached per m (m ≤ 128), so repeated
// predictions cost one map hit plus two O(m) scans.
var binomCache sync.Map // int -> []float64

func binomRow(m int) []float64 {
	if row, ok := binomCache.Load(m); ok {
		return row.([]float64)
	}
	row := make([]float64, m+1)
	// p_0 = 2^-m: representable down to m = 128 with huge margin.
	p := math.Ldexp(1, -m)
	for k := 0; k <= m; k++ {
		row[k] = p
		p *= float64(m-k) / float64(k+1)
	}
	binomCache.Store(m, row)
	return row
}

// admittedFrac returns A(r, n): the probability a uniform random outcome
// pair lies within Hamming distance r, i.e. the Binomial(n, 1/2) CDF at r.
// It is monotone non-decreasing in r.
func admittedFrac(r, n int) float64 {
	row := binomRow(n)
	var sum float64
	for k := 0; k <= r && k <= n; k++ {
		sum += row[k]
	}
	return min(sum, 1)
}

// candidateFrac returns the weight window's Cand(r, n): the probability two
// independent Binomial(n, 1/2) popcounts differ by at most r — the fraction
// of pairs a popcount-bucketed scan must visit. W1 − W2 + n ~
// Binomial(2n, 1/2), so this is a central slice of that row. Monotone
// non-decreasing in r.
func candidateFrac(r, n int) float64 {
	row := binomRow(2 * n)
	var sum float64
	for j := n - r; j <= n+r; j++ {
		if j < 0 || j > 2*n {
			continue
		}
		sum += row[j]
	}
	return min(sum, 1)
}

// multiIndexFrac returns the block multi-index's Cand(r, n) for r < n: the
// probability a uniform random pair shares the value of one of r+1
// contiguous blocks, Σ_b 2^−k_b over the block widths k_b. The blocks split
// as dist.MultiIndex splits them (the first n mod (r+1) one bit wider); the
// rule is restated here because cost stays import-free.
func multiIndexFrac(r, n int) float64 {
	blocks := r + 1
	var sum float64
	for b := 0; b < blocks; b++ {
		k := n / blocks
		if b < n%blocks {
			k++
		}
		sum += math.Ldexp(1, -k)
	}
	return min(sum, 1)
}

// blockedCandFrac returns the blocked engine's Cand(r, n): the fraction of
// pairs its scan visits on uniform outcomes under the engine's own selection
// rule — the block multi-index when that visits at most half the weight
// window's pairs, the window otherwise.
func blockedCandFrac(r, n int) float64 {
	win := candidateFrac(r, n)
	if r < n {
		if mi := multiIndexFrac(r, n); 2*mi <= win {
			return mi
		}
	}
	return win
}

// candFrac returns the engine's Cand(r, n).
func candFrac(engine string, r, n int) float64 {
	if engine == EngineBlocked {
		return blockedCandFrac(r, n)
	}
	return candidateFrac(r, n)
}

// perPairNs is the engine's cost per unordered pair (per delta row pair for
// incremental) at the workload's shape.
func perPairNs(engine string, c Coeffs, r, bits int) float64 {
	return c.PerPairFull + c.PerCand*candFrac(engine, r, bits) + c.PerAdmit*admittedFrac(r, bits)
}

// active is the process-wide model auto-selection and the scheduler consult,
// swapped atomically by calibration.
var active atomic.Pointer[Model]

// Active returns the model currently in effect: the default fitted from the
// committed benchmarks until a calibration (or an explicit SetActive) swaps
// in a refined one.
func Active() *Model {
	if m := active.Load(); m != nil {
		return m
	}
	return DefaultModel()
}

// SetActive installs a model process-wide. A nil model resets to the
// default. Swaps are atomic: in-flight predictions keep the model they
// loaded.
func SetActive(m *Model) { active.Store(m) }

// String renders the constants compactly, for logs.
func (c Coeffs) String() string {
	return fmt.Sprintf("setup=%.0fns out=%.1fns full=%.2fns cand=%.2fns adm=%.2fns",
		c.Setup, c.PerOutcome, c.PerPairFull, c.PerCand, c.PerAdmit)
}
