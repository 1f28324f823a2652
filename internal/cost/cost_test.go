package cost

import (
	"math"
	"testing"
	"time"
)

func TestPredictShape(t *testing.T) {
	m := DefaultModel()
	for _, name := range []string{EngineExact, EngineBlocked, EngineIncremental} {
		ns, ok := m.Predict(name, Workload{Support: 1000, Bits: 20, Radius: 9, Delta: 64})
		if !ok || ns <= 0 || math.IsInf(ns, 0) || math.IsNaN(ns) {
			t.Errorf("Predict(%s) = %v, %v", name, ns, ok)
		}
	}
	if _, ok := m.Predict("no-such-engine", Workload{Support: 10, Bits: 4, Radius: 1}); ok {
		t.Error("unmodeled engine claimed a prediction")
	}
	var nilModel *Model
	if _, ok := nilModel.Predict(EngineExact, Workload{Support: 10, Bits: 4, Radius: 1}); ok {
		t.Error("nil model claimed a prediction")
	}
}

// TestPredictDegenerateFloor pins that empty, negative, and oversized
// workloads still predict a positive finite cost instead of zero or NaN —
// the scheduler divides by and compares these numbers.
func TestPredictDegenerateFloor(t *testing.T) {
	m := DefaultModel()
	for _, w := range []Workload{
		{},
		{Support: -5, Bits: -3, Radius: -2, TopM: -1, Delta: -7},
		{Support: 1, Bits: 200, Radius: 500},
		{Support: math.MaxInt32, Bits: 64, Radius: 64},
	} {
		for _, name := range []string{EngineExact, EngineBlocked, EngineIncremental} {
			ns, ok := m.Predict(name, w)
			if !ok || ns < 1 || math.IsNaN(ns) || math.IsInf(ns, 0) {
				t.Errorf("Predict(%s, %+v) = %v, %v", name, w, ns, ok)
			}
		}
	}
}

// TestPredictTopM pins the truncation rule: TopM caps the pairwise work, so
// a truncated large support predicts exactly like the truncated size, and
// a TopM above the support changes nothing.
func TestPredictTopM(t *testing.T) {
	m := DefaultModel()
	base := Workload{Support: 500, Bits: 16, Radius: 7}
	trunc := base
	trunc.Support, trunc.TopM = 100000, 500
	for _, name := range []string{EngineExact, EngineBlocked} {
		a, _ := m.Predict(name, base)
		b, _ := m.Predict(name, trunc)
		if a != b {
			t.Errorf("%s: TopM-truncated prediction %v != plain %v", name, b, a)
		}
		loose := base
		loose.TopM = base.Support * 10
		c, _ := m.Predict(name, loose)
		if c != a {
			t.Errorf("%s: oversized TopM changed prediction %v -> %v", name, a, c)
		}
	}
}

// TestPredictIncrementalDelta pins the incremental engine's work term: cost
// scales with the delta, and a zero delta predicts (near) snapshot-only
// cost, strictly below any positive delta.
func TestPredictIncrementalDelta(t *testing.T) {
	m := DefaultModel()
	w := Workload{Support: 2000, Bits: 20, Radius: 9}
	prev := 0.0
	for i, delta := range []int{0, 1, 64, 512, 2000, 5000} {
		w.Delta = delta
		ns, ok := m.Predict(EngineIncremental, w)
		if !ok {
			t.Fatal("incremental not modeled")
		}
		if i > 0 && ns < prev {
			t.Errorf("delta=%d predicted %v < previous %v (not monotone in delta)", delta, ns, prev)
		}
		prev = ns
	}
	// Deltas beyond the support clamp: a "changed everything" stream does
	// not predict more work than the support holds.
	w.Delta = 2000
	capped, _ := m.Predict(EngineIncremental, w)
	w.Delta = 1 << 30
	huge, _ := m.Predict(EngineIncremental, w)
	if huge != capped {
		t.Errorf("delta clamp: %v != %v", huge, capped)
	}
}

func TestChoose(t *testing.T) {
	m := DefaultModel()
	w := Workload{Support: 4000, Bits: 20, Radius: 9}
	name, ns, ok := m.Choose(w, []string{EngineExact, EngineBlocked})
	if !ok || ns <= 0 {
		t.Fatalf("Choose = %q, %v, %v", name, ns, ok)
	}
	if name != EngineBlocked {
		t.Errorf("default-radius large support chose %q, want blocked", name)
	}
	w.Radius = 2
	if name, _, _ := m.Choose(w, []string{EngineExact, EngineBlocked}); name != EngineBlocked {
		t.Errorf("radius-2 large support chose %q, want blocked", name)
	}
	w.Support = 8
	if name, _, _ := m.Choose(w, []string{EngineExact, EngineBlocked}); name != EngineExact {
		t.Errorf("8-outcome support chose %q, want exact", name)
	}
	if _, _, ok := m.Choose(w, []string{"x", "y"}); ok {
		t.Error("Choose claimed success with no modeled candidate")
	}
	if _, _, ok := m.Choose(w, nil); ok {
		t.Error("Choose claimed success with no candidates")
	}
}

// TestChooseTieBreak pins determinism: equal predictions resolve to the
// earlier candidate.
func TestChooseTieBreak(t *testing.T) {
	c := Coeffs{Setup: 100, PerOutcome: 1, PerPairFull: 2}
	m := &Model{Engines: map[string]Coeffs{"a": c, "b": c}}
	w := Workload{Support: 100, Bits: 16, Radius: 7}
	if name, _, _ := m.Choose(w, []string{"b", "a"}); name != "b" {
		t.Errorf("tie broke to %q, want first candidate", name)
	}
	if name, _, _ := m.Choose(w, []string{"a", "b"}); name != "a" {
		t.Errorf("tie broke to %q, want first candidate", name)
	}
}

func TestPredictDurationSaturates(t *testing.T) {
	m := &Model{Engines: map[string]Coeffs{"huge": {PerPairFull: math.MaxFloat64 / 4}}}
	d, ok := m.PredictDuration("huge", Workload{Support: 1 << 30, Bits: 64, Radius: 64})
	if !ok || d != time.Duration(math.MaxInt64) {
		t.Fatalf("PredictDuration = %v, %v; want saturation", d, ok)
	}
	if _, ok := m.PredictDuration("absent", Workload{Support: 10, Bits: 4, Radius: 1}); ok {
		t.Error("PredictDuration claimed coverage for unmodeled engine")
	}
}

func TestFractions(t *testing.T) {
	// A(r, n) and Cand(r, n) are probabilities, monotone in r, and saturate
	// at 1 once the radius spans the space.
	for _, n := range []int{1, 2, 5, 16, 20, 64} {
		prevA, prevC := -1.0, -1.0
		for r := 0; r <= n; r++ {
			a, c := admittedFrac(r, n), candidateFrac(r, n)
			if a < 0 || a > 1 || c < 0 || c > 1 {
				t.Fatalf("n=%d r=%d: fracs out of range: A=%v C=%v", n, r, a, c)
			}
			if a < prevA || c < prevC {
				t.Fatalf("n=%d r=%d: fracs not monotone", n, r)
			}
			if a > c+1e-12 {
				// Hamming distance dominates popcount difference, so the
				// candidate set (|ΔW| ≤ r) contains the admitted set
				// (HD ≤ r): A(r,n) ≤ Cand(r,n) always.
				t.Fatalf("n=%d r=%d: A=%v > C=%v", n, r, a, c)
			}
			prevA, prevC = a, c
		}
		if a := admittedFrac(n, n); math.Abs(a-1) > 1e-9 {
			t.Errorf("A(%d,%d) = %v, want 1", n, n, a)
		}
	}
	// Hand-checkable point: A(1, 2) = (C(2,0)+C(2,1))/4 = 3/4.
	if a := admittedFrac(1, 2); math.Abs(a-0.75) > 1e-12 {
		t.Errorf("A(1,2) = %v, want 0.75", a)
	}
}

// TestBlockedCandFrac pins the blocked engine's candidate fraction to its
// scan selection: the block multi-index's Σ_b 2^−k_b wherever that is at
// most half the weight window's fraction, the window's everywhere else.
func TestBlockedCandFrac(t *testing.T) {
	// 20 bits at radius 3: four 5-bit blocks, 4·2^−5 = 1/8 of all pairs.
	if got := multiIndexFrac(3, 20); math.Abs(got-0.125) > 1e-15 {
		t.Errorf("multiIndexFrac(3, 20) = %v, want 0.125", got)
	}
	// 33 bits at radius 3: blocks of 9, 8, 8 and 8 bits.
	if got, want := multiIndexFrac(3, 33), math.Ldexp(1, -9)+3*math.Ldexp(1, -8); math.Abs(got-want) > 1e-15 {
		t.Errorf("multiIndexFrac(3, 33) = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		r, n  int
		multi bool
	}{
		{2, 20, true}, {3, 20, true}, {4, 20, true}, {9, 20, false}, {5, 12, false}, {19, 20, false}, {20, 20, false},
	} {
		got, win := blockedCandFrac(tc.r, tc.n), candidateFrac(tc.r, tc.n)
		if multi := got != win; multi != tc.multi {
			t.Errorf("r=%d n=%d: blocked fraction %v, window %v; multi-index selected = %v, want %v",
				tc.r, tc.n, got, win, multi, tc.multi)
		}
		if got > win {
			t.Errorf("r=%d n=%d: blocked fraction %v above the window's %v", tc.r, tc.n, got, win)
		}
	}
	// Switching scans must not break Predict's monotonicity in radius.
	for n := 1; n <= 64; n++ {
		prev := 0.0
		for r := 0; r <= n; r++ {
			if c := blockedCandFrac(r, n); c < prev {
				t.Fatalf("n=%d r=%d: blocked fraction %v below radius %d's %v", n, r, c, r-1, prev)
			} else {
				prev = c
			}
		}
	}
}

func TestActiveSwap(t *testing.T) {
	prev := Active()
	defer SetActive(prev)

	if Active() == nil {
		t.Fatal("Active() returned nil")
	}
	custom := &Model{Engines: map[string]Coeffs{EngineExact: {Setup: 1}}}
	SetActive(custom)
	if Active() != custom {
		t.Fatal("SetActive did not install the model")
	}
	SetActive(nil)
	got := Active()
	if got == nil || len(got.Engines) == 0 {
		t.Fatal("nil SetActive did not reset to the default model")
	}
}

func TestNames(t *testing.T) {
	m := &Model{Engines: map[string]Coeffs{"c": {}, "a": {}, "b": {}}}
	names := m.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names = %v", names)
	}
}
