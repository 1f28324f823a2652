package cost

import "testing"

func TestPredictShardedModeled(t *testing.T) {
	m := DefaultModel()
	w := Workload{Support: 4000, Bits: 20, Radius: 9}
	for _, engine := range []string{EngineBlocked} {
		if _, ok := m.PredictSharded(engine, w, 4); !ok {
			t.Fatalf("PredictSharded(%s) not modeled", engine)
		}
		if _, ok := m.PredictStripe(engine, w, 1_000_000); !ok {
			t.Fatalf("PredictStripe(%s) not modeled", engine)
		}
	}
	for _, engine := range []string{EngineExact, EngineIncremental, "bucketed", "bogus"} {
		if _, ok := m.PredictSharded(engine, w, 4); ok {
			t.Fatalf("PredictSharded(%s) claims modeled for a non-stripe-capable engine", engine)
		}
	}
	if _, ok := m.PredictSharded(EngineBlocked, w, 0); ok {
		t.Fatal("PredictSharded with 0 stripes claims modeled")
	}
}

// TestShardCrossover pins the economic shape the serve layer relies on:
// coordination overhead makes sharding a loss on small supports and a win on
// large ones, with a finite crossover in between.
func TestShardCrossover(t *testing.T) {
	m := DefaultModel()
	small := Workload{Support: 500, Bits: 20, Radius: 9}
	large := Workload{Support: 100_000, Bits: 20, Radius: 9}
	for _, S := range []int{2, 4, 8} {
		localSmall, _ := m.Predict(EngineBlocked, small)
		shardSmall, ok := m.PredictSharded(EngineBlocked, small, S)
		if !ok || shardSmall <= localSmall {
			t.Fatalf("S=%d: sharding a %d-outcome support predicted cheaper (%v) than local (%v)", S, small.Support, shardSmall, localSmall)
		}
		localLarge, _ := m.Predict(EngineBlocked, large)
		shardLarge, ok := m.PredictSharded(EngineBlocked, large, S)
		if !ok || shardLarge >= localLarge {
			t.Fatalf("S=%d: sharding a %d-outcome support predicted slower (%v) than local (%v)", S, large.Support, shardLarge, localLarge)
		}
	}
	// A one-stripe "shard" still pays coordination, so it must never beat
	// the local run it duplicates.
	for _, w := range []Workload{small, large} {
		local, _ := m.Predict(EngineBlocked, w)
		shard1, _ := m.PredictSharded(EngineBlocked, w, 1)
		if shard1 <= local {
			t.Fatalf("single-stripe shard (%v) predicted at or below local (%v)", shard1, local)
		}
	}
}

func TestPredictStripeScalesWithPairs(t *testing.T) {
	m := DefaultModel()
	w := Workload{Support: 4000, Bits: 20, Radius: 9}
	prev := 0.0
	for _, pairs := range []int64{0, 1000, 1_000_000, 4_000_000} {
		ns, ok := m.PredictStripe(EngineBlocked, w, pairs)
		if !ok {
			t.Fatal("not modeled")
		}
		if ns <= prev {
			t.Fatalf("PredictStripe not strictly increasing in pairs: %v after %v", ns, prev)
		}
		prev = ns
	}
	// Negative pair counts clamp rather than predicting negative time.
	if ns, _ := m.PredictStripe(EngineBlocked, w, -5); ns <= 0 {
		t.Fatalf("negative pairs predicted %v", ns)
	}
}

// TestShardCoeffsSurviveFit ensures a refit keeps pricing coordination: the
// shard constants ride through Fit unchanged (they are hand-set, not
// fitted).
func TestShardCoeffsSurviveFit(t *testing.T) {
	base := DefaultModel()
	m := Fit(base, []Sample{{Engine: EngineBlocked, W: Workload{Support: 1000, Bits: 20, Radius: 9}, NsPerOp: 1e6}})
	if m.Shard != base.Shard {
		t.Fatalf("Fit dropped shard coefficients: %+v vs %+v", m.Shard, base.Shard)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// A model deserialized without shard constants falls back to defaults
	// instead of pricing coordination as free.
	bare := &Model{Engines: base.Engines}
	if got := bare.shardCoeffs(); got != DefaultShardCoeffs() {
		t.Fatalf("zero shard coeffs did not default: %+v", got)
	}
}
