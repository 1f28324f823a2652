package cost

import (
	"math"
	"testing"
)

// synthSamples generates exact measurements from known coefficients over a
// (support × radius) grid, so Fit has a recoverable ground truth.
func synthSamples(engine string, c Coeffs, bits int) []Sample {
	var ss []Sample
	for _, n := range []int{200, 500, 1000, 2000} {
		for _, r := range []int{2, 4, 7, defaultRadius(bits)} {
			w := Workload{Support: n, Bits: bits, Radius: r}
			m := &Model{Engines: map[string]Coeffs{engine: c}}
			ns, _ := m.Predict(engine, w)
			ss = append(ss, Sample{Engine: engine, W: w, NsPerOp: ns})
		}
	}
	return ss
}

// TestFitRecovers pins that fitting noiseless synthetic measurements gets
// the pair coefficients back (Setup/PerOutcome are held from the base, so
// with matching bases recovery is exact up to float rounding).
func TestFitRecovers(t *testing.T) {
	for _, tc := range []struct {
		engine string
		truth  Coeffs
	}{
		{EngineExact, Coeffs{Setup: 500, PerOutcome: 30, PerPairFull: 9.5, PerAdmit: 21}},
		{EngineBlocked, Coeffs{Setup: 4000, PerOutcome: 110, PerCand: 3.2, PerAdmit: 0}},
		{EngineBlocked, Coeffs{Setup: 4000, PerOutcome: 110, PerCand: 2.3, PerAdmit: 16}},
	} {
		base := &Model{Engines: map[string]Coeffs{tc.engine: {
			Setup: tc.truth.Setup, PerOutcome: tc.truth.PerOutcome,
		}}}
		fitted := Fit(base, synthSamples(tc.engine, tc.truth, 20))
		got := fitted.Engines[tc.engine]
		for _, pair := range [][2]float64{
			{got.PerPairFull, tc.truth.PerPairFull},
			{got.PerCand, tc.truth.PerCand},
			{got.PerAdmit, tc.truth.PerAdmit},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-6*(1+pair[1]) {
				t.Errorf("%s: fitted %+v, want %+v", tc.engine, got, tc.truth)
				break
			}
		}
	}
}

// TestFitKeepsUnsampledEngines pins that engines without samples carry their
// base coefficients through unchanged.
func TestFitKeepsUnsampledEngines(t *testing.T) {
	base := DefaultModel()
	fitted := Fit(base, synthSamples(EngineExact, base.Engines[EngineExact], 20))
	if fitted.Engines[EngineBlocked] != base.Engines[EngineBlocked] {
		t.Errorf("unsampled blocked coefficients changed: %+v", fitted.Engines[EngineBlocked])
	}
	// And the input model is not mutated.
	if base.Engines[EngineExact] != DefaultModel().Engines[EngineExact] {
		t.Error("Fit mutated its base model")
	}
}

// TestFitClampsNonNegative pins the monotonicity guard: adversarial samples
// (decreasing time with radius) must clamp, not go negative.
func TestFitClampsNonNegative(t *testing.T) {
	base := &Model{Engines: map[string]Coeffs{EngineBlocked: {}}}
	ss := []Sample{
		{EngineBlocked, Workload{Support: 1000, Bits: 20, Radius: 2}, 1e9},
		{EngineBlocked, Workload{Support: 1000, Bits: 20, Radius: 9}, 1e3},
	}
	c := Fit(base, ss).Engines[EngineBlocked]
	if c.PerCand < 0 || c.PerAdmit < 0 || c.PerPairFull < 0 {
		t.Fatalf("negative coefficient survived: %+v", c)
	}
	if err := Fit(base, ss).Validate(); err != nil {
		t.Fatalf("clamped fit fails validation: %v", err)
	}
}

// TestFitDegenerate pins the edge cases Fit must shrug off: empty sample
// sets, zero-pair workloads, single collinear rows, unknown engines.
func TestFitDegenerate(t *testing.T) {
	base := DefaultModel()
	if got := Fit(base, nil); got.Engines[EngineExact] != base.Engines[EngineExact] {
		t.Error("empty fit changed coefficients")
	}
	// A support-1 workload has zero pairs: the sample is skipped, the engine
	// keeps its base coefficients.
	ss := []Sample{{EngineExact, Workload{Support: 1, Bits: 20, Radius: 9}, 12345}}
	if got := Fit(base, ss); got.Engines[EngineExact] != base.Engines[EngineExact] {
		t.Error("zero-pair sample changed coefficients")
	}
	// One radius only: collinear regressors take the fallback, still valid.
	one := []Sample{{EngineBlocked, Workload{Support: 1000, Bits: 20, Radius: 9}, 5e6}}
	if err := Fit(base, one).Validate(); err != nil {
		t.Fatalf("single-sample fit invalid: %v", err)
	}
	// A never-seen engine gets fitted from zero base constants.
	novel := []Sample{
		{"novel", Workload{Support: 1000, Bits: 20, Radius: 4}, 4e6},
		{"novel", Workload{Support: 1000, Bits: 20, Radius: 9}, 9e6},
	}
	got := Fit(base, novel)
	if ns, ok := got.Predict("novel", Workload{Support: 1000, Bits: 20, Radius: 9}); !ok || ns <= 0 {
		t.Fatalf("novel engine not fitted: %v, %v", ns, ok)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	for _, m := range []*Model{
		{},
		{Engines: map[string]Coeffs{}},
		{Engines: map[string]Coeffs{"x": {Setup: -1}}},
		{Engines: map[string]Coeffs{"x": {Setup: math.NaN()}}},
		{Engines: map[string]Coeffs{"x": {PerCand: math.Inf(1)}}},
		{Engines: map[string]Coeffs{"x": {Setup: 1e20}}},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", m)
		}
	}
}
