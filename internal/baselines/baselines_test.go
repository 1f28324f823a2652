package baselines

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/circuits"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/readout"
	"repro/internal/transpile"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMergeMean(t *testing.T) {
	a, b := dist.NewBuilder(2), dist.NewBuilder(2)
	a.Set(0b00, 1)
	b.Set(0b11, 1)
	m := Merge([]*dist.Dist{a.Dist(), b.Dist()}, MergeMean)
	if !almostEq(m.Prob(0b00), 0.5, 1e-12) || !almostEq(m.Prob(0b11), 0.5, 1e-12) {
		t.Errorf("mean merge = %v", m)
	}
}

func TestMergeGeoSuppressesDisjointErrors(t *testing.T) {
	// Two mappings agree on the correct outcome but each has its own
	// correlated error; the geometric merge keeps only the agreement.
	a, b := dist.NewBuilder(3), dist.NewBuilder(3)
	a.Set(0b111, 0.6)
	a.Set(0b100, 0.4) // mapping-A-specific error
	b.Set(0b111, 0.6)
	b.Set(0b001, 0.4) // mapping-B-specific error
	m := Merge([]*dist.Dist{a.Dist(), b.Dist()}, MergeGeo)
	if !almostEq(m.Prob(0b111), 1, 1e-12) {
		t.Errorf("geo merge = %v", m)
	}
}

func TestMergeGeoFallsBackOnDisjointSupport(t *testing.T) {
	a, b := dist.NewBuilder(2), dist.NewBuilder(2)
	a.Set(0b00, 1)
	b.Set(0b11, 1)
	m := Merge([]*dist.Dist{a.Dist(), b.Dist()}, MergeGeo)
	if !almostEq(m.Total(), 1, 1e-12) {
		t.Errorf("fallback merge mass = %v", m.Total())
	}
}

func TestMergePanics(t *testing.T) {
	ab, bb := dist.NewBuilder(2), dist.NewBuilder(3)
	ab.Set(0, 1)
	bb.Set(0, 1)
	a, b := ab.Dist(), bb.Dist()
	for name, fn := range map[string]func(){
		"empty":    func() { Merge(nil, MergeMean) },
		"mismatch": func() { Merge([]*dist.Dist{a, b}, MergeMean) },
		"badmode":  func() { Merge([]*dist.Dist{a}, MergeMode(9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	if MergeMean.String() != "mean" || MergeGeo.String() != "geometric" {
		t.Error("MergeMode labels wrong")
	}
	if MergeMode(7).String() == "" {
		t.Error("unknown mode label empty")
	}
}

func TestDiverseMappingsImprovesOverSingle(t *testing.T) {
	// GHZ-6 on a Manhattan-like device: the ensemble of 3 mappings should
	// match or beat the single-mapping PST thanks to decorrelated errors.
	n := 6
	c := circuits.GHZ(n)
	cm := transpile.HeavyHexLike(n)
	dev := noise.IBMManhattanLike()
	correct := circuits.GHZCorrect(n)

	single := DiverseMappings(c, cm, dev, 11, 1, MergeMean)
	ensemble := DiverseMappings(c, cm, dev, 11, 3, MergeMean)
	pSingle := metrics.PST(single, correct)
	pEnsemble := metrics.PST(ensemble, correct)
	if pEnsemble < pSingle*0.9 {
		t.Errorf("ensemble PST %v collapsed vs single %v", pEnsemble, pSingle)
	}
	// The ensemble's most frequent *incorrect* outcome is weaker: the
	// mapping-specific correlated errors average down.
	topIncSingle := topIncorrect(single, correct)
	topIncEnsemble := topIncorrect(ensemble, correct)
	if topIncEnsemble > topIncSingle*1.2 {
		t.Errorf("ensemble top incorrect %v not suppressed vs %v", topIncEnsemble, topIncSingle)
	}
}

func topIncorrect(d *dist.Dist, correct []bitstr.Bits) float64 {
	isCorrect := map[bitstr.Bits]bool{}
	for _, c := range correct {
		isCorrect[c] = true
	}
	best := 0.0
	d.Range(func(x bitstr.Bits, p float64) {
		if !isCorrect[x] && p > best {
			best = p
		}
	})
	return best
}

func TestDiverseMappingsSemanticsPreserved(t *testing.T) {
	// With a noiseless device model, every mapping returns the ideal
	// distribution, so the merge equals the ideal regardless of k.
	n := 5
	c := circuits.GHZ(n)
	cm := transpile.FullyConnected(n)
	dev := &noise.DeviceModel{Name: "noiseless"}
	out := DiverseMappings(c, cm, dev, 3, 4, MergeMean)
	if !almostEq(out.Prob(0), 0.5, 1e-9) || !almostEq(out.Prob(bitstr.AllOnes(n)), 0.5, 1e-9) {
		t.Errorf("noiseless ensemble = %v", out)
	}
}

func TestDiverseMappingsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	DiverseMappings(circuits.GHZ(3), transpile.Linear(3), noise.IBMParisLike(), 1, 0, MergeMean)
}

func TestStandardPipelines(t *testing.T) {
	// BV (the paper's Fig. 8 workload): single correct outcome with a rich
	// error cluster. GHZ is deliberately not used here — its domain-wall
	// errors form their own Hamming chain and HAMMER does not reliably help
	// (the paper, likewise, uses GHZ only for characterization in §3.1).
	n := 6
	key := bitstr.MustParse("110101")
	c := circuits.BV(n, key)
	dev := noise.IBMParisLike()
	cm := transpile.HeavyHexLike(n + 1)
	routed := transpile.Transpile(c, cm)
	noisy := routed.RemapDist(noise.ExecuteDist(routed.Circuit, dev, 9)).Marginal(n)
	cal := readout.Uniform(n, dev.ReadoutP01, dev.ReadoutP10)
	correct := []bitstr.Bits{key}

	pipes := StandardPipelines(cal)
	if len(pipes) != 4 {
		t.Fatalf("pipeline count = %d", len(pipes))
	}
	psts := map[string]float64{}
	for _, p := range pipes {
		out := p.Apply(noisy)
		if !almostEq(out.Total(), 1, 1e-9) {
			t.Errorf("%s: mass %v", p.Name, out.Total())
		}
		psts[p.Name] = metrics.PST(out, correct)
	}
	// Each mitigation beats doing nothing; the composition beats HAMMER
	// alone (readout bias removed before reconstruction).
	if psts["readout-mitigation"] <= psts["baseline"] {
		t.Errorf("readout mitigation did not help: %v <= %v",
			psts["readout-mitigation"], psts["baseline"])
	}
	if psts["hammer"] <= psts["baseline"] {
		t.Errorf("hammer did not help: %v <= %v", psts["hammer"], psts["baseline"])
	}
	if psts["readout+hammer"] <= psts["baseline"] {
		t.Errorf("composition did not help: %v", psts["readout+hammer"])
	}
}

// TestMergeGeoBitReproducible: the geometric merge collects its support in
// a map, and must not let Go's map order into the total it normalizes by,
// so repeated merges of one ensemble agree in every bit of every mass.
func TestMergeGeoBitReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var members []*dist.Dist
	for range 3 {
		b := dist.NewBuilder(10)
		for x := range 1024 {
			b.Set(bitstr.Bits(x), 0.01+rng.Float64())
		}
		members = append(members, b.Dist().Normalize())
	}
	bits := func() []uint64 {
		var out []uint64
		Merge(members, MergeGeo).Range(func(_ bitstr.Bits, p float64) { out = append(out, math.Float64bits(p)) })
		return out
	}
	first := bits()
	for call := 1; call < 20; call++ {
		if !slices.Equal(bits(), first) {
			t.Fatalf("merge %d: masses differ in some bit from the first merge's", call)
		}
	}
}
