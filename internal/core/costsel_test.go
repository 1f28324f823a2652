package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cost"
)

// TestChooseAutoFallback pins the degradation path: when the active model
// covers neither auto candidate, auto-selection takes blocked on every
// support instead of failing or picking arbitrarily.
func TestChooseAutoFallback(t *testing.T) {
	prev := cost.Active()
	defer cost.SetActive(prev)
	cost.SetActive(&cost.Model{Engines: map[string]cost.Coeffs{
		"no-such-engine": {Setup: 1},
	}})

	small := goldenDist(4, 3)
	if res := Reconstruct(small, Options{}); res.Engine != EngineBlocked {
		t.Fatalf("fallback auto on N=%d picked %q", small.Len(), res.Engine)
	}
	large := goldenDist(12, 4)
	if res := Reconstruct(large, Options{}); res.Engine != EngineBlocked {
		t.Fatalf("fallback auto on N=%d picked %q", large.Len(), res.Engine)
	}
	if _, _, ok := PredictCost(Options{}, large.Len(), large.NumBits()); ok {
		t.Fatal("PredictCost claimed coverage under a model with no known engines")
	}
}

// TestPredictCostRejectsDegenerate pins the guard rails: non-positive
// dimensions and negative radii never reach the model.
func TestPredictCostRejectsDegenerate(t *testing.T) {
	for _, tc := range []struct {
		support, bits int
		opts          Options
	}{
		{0, 20, Options{}},
		{100, 0, Options{}},
		{100, 20, Options{Radius: -1}},
	} {
		if _, _, ok := PredictCost(tc.opts, tc.support, tc.bits); ok {
			t.Errorf("PredictCost(%+v, %d, %d) = ok", tc.opts, tc.support, tc.bits)
		}
	}
}

// TestPredictShardCost pins the shard-side admission bridge: stripe-capable
// resolutions are modeled, unshardable shapes are not, and the crossover the
// serve layer keys on (sharded cheaper than local only at scale) holds under
// the default model.
func TestPredictShardCost(t *testing.T) {
	if _, ok := PredictShardCost(Options{}, 100_000, 20, 4); !ok {
		t.Fatal("PredictShardCost(auto) not modeled")
	}
	if _, ok := PredictShardCost(Options{Engine: EngineBucketed}, 4000, 20, 4); !ok {
		t.Fatal("bucketed pin not modeled")
	}
	for _, tc := range []struct {
		name string
		opts Options
		n    int
		bits int
		s    int
	}{
		{"disable filter", Options{DisableFilter: true}, 4000, 20, 4},
		{"exact pin", Options{Engine: EngineExact}, 4000, 20, 4},
		{"zero support", Options{}, 0, 20, 4},
		{"zero stripes", Options{}, 4000, 20, 0},
	} {
		if _, ok := PredictShardCost(tc.opts, tc.n, tc.bits, tc.s); ok {
			t.Errorf("%s: PredictShardCost claimed shardable", tc.name)
		}
	}
	// Crossover: local wins small, sharded wins large (matching the
	// internal/cost pins, but through the options-resolution path).
	_, localSmall, _ := PredictCost(Options{Engine: EngineBlocked}, 500, 20)
	shardSmall, _ := PredictShardCost(Options{Engine: EngineBlocked}, 500, 20, 4)
	if shardSmall <= localSmall {
		t.Fatalf("sharding 500 outcomes predicted cheaper (%v) than local (%v)", shardSmall, localSmall)
	}
	_, localLarge, _ := PredictCost(Options{Engine: EngineBlocked}, 100_000, 20)
	shardLarge, _ := PredictShardCost(Options{Engine: EngineBlocked}, 100_000, 20, 4)
	if shardLarge >= localLarge {
		t.Fatalf("sharding 100k outcomes predicted slower (%v) than local (%v)", shardLarge, localLarge)
	}
}

// TestCalibrateRefines runs the real measurer on a deliberately small grid
// and checks the refit yields a valid model that still predicts positive,
// finite cost for every batch engine — the contract serving startup relies
// on before swapping the model in.
func TestCalibrateRefines(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration times real reconstructions")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m, err := cost.Calibrate(ctx, CalibrationMeasurer(), cost.DefaultModel(), cost.CalibrationConfig{
		Bits:     12,
		Supports: []int{64, 192},
		Radii:    []int{2, 5},
		Engines:  []string{EngineExact, EngineBlocked},
	})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("calibrated model invalid: %v", err)
	}
	for _, name := range []string{EngineExact, EngineBlocked} {
		ns, ok := m.Predict(name, cost.Workload{Support: 500, Bits: 12, Radius: 5})
		if !ok || ns <= 0 {
			t.Fatalf("calibrated model predicts %v, %v for %s", ns, ok, name)
		}
	}
}

// TestCalibrateCancel pins context abort: a pre-canceled context must stop
// the pass before it measures anything.
func TestCalibrateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cost.Calibrate(ctx, CalibrationMeasurer(), cost.DefaultModel(), cost.CalibrationConfig{}); err == nil {
		t.Fatal("Calibrate ignored canceled context")
	}
}
