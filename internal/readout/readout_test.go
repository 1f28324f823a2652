package readout

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
	"repro/internal/noise"
	"repro/internal/quantum"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMitigateInvertsReadoutExactly(t *testing.T) {
	// Apply the readout channel, then mitigate with the true calibration:
	// the original distribution must come back (infinite-shot limit).
	n := 5
	rng := rand.New(rand.NewSource(6))
	b := dist.NewBuilder(n)
	for i := 0; i < 12; i++ {
		b.Add(bitstr.Bits(rng.Intn(1<<n)), rng.Float64())
	}
	orig := b.Dist().Normalize()
	cal := Uniform(n, 0.02, 0.05)
	v := orig.Dense()
	(&noise.Readout{P01: cal.P01, P10: cal.P10}).Apply(v)
	corrupted := v.Sparse(0)
	recovered := Mitigate(corrupted, cal)
	if d := dist.TVD(orig, recovered); d > 1e-9 {
		t.Errorf("mitigation did not invert readout: TVD = %v", d)
	}
}

func TestMitigateIdentityWhenNoError(t *testing.T) {
	b := dist.NewBuilder(3)
	b.Set(0b101, 0.6)
	b.Set(0b010, 0.4)
	d := b.Dist()
	out := Mitigate(d, Uniform(3, 0, 0))
	if dv := dist.TVD(d, out); dv > 1e-12 {
		t.Errorf("zero-rate mitigation changed distribution: %v", dv)
	}
}

func TestMitigateClipsNegatives(t *testing.T) {
	// A distribution inconsistent with the calibration (e.g. sharp point
	// mass with large assumed error) produces negative quasi-probabilities
	// that must be clipped to a valid distribution.
	b := dist.NewBuilder(2)
	b.Set(0b01, 1)
	d := b.Dist()
	out := Mitigate(d, Uniform(2, 0.2, 0.3))
	if !almostEq(out.Total(), 1, 1e-9) {
		t.Errorf("mitigated mass = %v", out.Total())
	}
	out.Range(func(_ bitstr.Bits, p float64) {
		if p < 0 {
			t.Errorf("negative probability %v survived", p)
		}
	})
}

func TestMitigateImprovesNoisyGHZ(t *testing.T) {
	// End to end: GHZ through a device channel; mitigation with the device
	// calibration should increase the correct-outcome mass.
	n := 6
	c := ghz(n)
	dev := noise.IBMManhattanLike()
	noisy := noise.ExecuteDist(c, dev, 17)
	cal := Uniform(n, dev.ReadoutP01, dev.ReadoutP10)
	mitigated := Mitigate(noisy, cal)
	correct := []bitstr.Bits{0, bitstr.AllOnes(n)}
	before := noisy.Prob(correct[0]) + noisy.Prob(correct[1])
	after := mitigated.Prob(correct[0]) + mitigated.Prob(correct[1])
	if after <= before {
		t.Errorf("mitigation did not help: %v -> %v", before, after)
	}
}

func TestCalibrationValidate(t *testing.T) {
	if err := Uniform(3, 0.02, 0.04).Validate(3); err != nil {
		t.Error(err)
	}
	if err := Uniform(3, 0.02, 0.04).Validate(4); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := Uniform(2, 0.6, 0.5).Validate(2); err == nil {
		t.Error("singular matrix accepted")
	}
	if err := Uniform(2, -0.1, 0).Validate(2); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestMitigateSingleOutcomeConsistent(t *testing.T) {
	// A support-1 histogram consistent with a zero-error calibration is a
	// fixed point; with per-qubit asymmetric rates it spreads into the
	// simplex but stays normalized with no negative mass.
	b := dist.NewBuilder(3)
	b.Set(0b110, 1)
	d := b.Dist()
	if out := Mitigate(d, Uniform(3, 0, 0)); out.Len() != 1 || !almostEq(out.Prob(0b110), 1, 1e-12) {
		t.Errorf("zero-error singleton changed: %v", out)
	}
	cal := &Calibration{P01: []float64{0.01, 0.0, 0.3}, P10: []float64{0.05, 0.0, 0.2}}
	out := Mitigate(d, cal)
	if !almostEq(out.Total(), 1, 1e-9) {
		t.Errorf("asymmetric singleton mass = %v", out.Total())
	}
	out.Range(func(_ bitstr.Bits, p float64) {
		if p < 0 {
			t.Errorf("negative probability %v", p)
		}
	})
}

func TestMitigateAsymmetricRoundTrip(t *testing.T) {
	// Per-qubit heterogeneous rates (including error-free qubits) must
	// invert exactly in the infinite-shot limit, like the uniform case.
	n := 4
	rng := rand.New(rand.NewSource(11))
	b := dist.NewBuilder(n)
	for i := 0; i < 7; i++ {
		b.Add(bitstr.Bits(rng.Intn(1<<n)), rng.Float64())
	}
	orig := b.Dist().Normalize()
	cal := &Calibration{
		P01: []float64{0.01, 0.0, 0.08, 0.03},
		P10: []float64{0.04, 0.0, 0.02, 0.10},
	}
	v := orig.Dense()
	(&noise.Readout{P01: cal.P01, P10: cal.P10}).Apply(v)
	recovered := Mitigate(v.Sparse(0), cal)
	if d := dist.TVD(orig, recovered); d > 1e-9 {
		t.Errorf("asymmetric mitigation did not invert: TVD = %v", d)
	}
}

func TestCalibrationValidateBoundaries(t *testing.T) {
	// Exactly singular (p01+p10 = 1) and out-of-range rates are rejected;
	// an empty calibration never validates against real qubits.
	if err := Uniform(2, 0.5, 0.5).Validate(2); err == nil {
		t.Error("exactly singular matrix accepted")
	}
	if err := Uniform(2, 1.1, 0).Validate(2); err == nil {
		t.Error("rate above 1 accepted")
	}
	if err := (&Calibration{}).Validate(1); err == nil {
		t.Error("empty calibration accepted")
	}
	// Mismatched P01/P10 lengths are a length error, not a panic.
	if err := (&Calibration{P01: []float64{0.1}, P10: nil}).Validate(1); err == nil {
		t.Error("ragged calibration accepted")
	}
}

func TestMitigatePanicsOnBadCalibration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b := dist.NewBuilder(2)
	b.Set(0, 1)
	d := b.Dist()
	Mitigate(d, Uniform(3, 0.1, 0.1))
}

func ghz(n int) *quantum.Circuit {
	c := quantum.NewCircuit(n).H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	return c
}
