package cost

import "fmt"

// Sample is one measured data point: an engine ran a workload in NsPerOp
// nanoseconds. Fit consumes samples from the committed benchmark reports
// (report.go) and from live calibration (calibrate.go) identically.
type Sample struct {
	Engine  string
	W       Workload
	NsPerOp float64
}

// Fit refits the per-pair coefficients of every engine that has samples,
// keeping the base model's Setup and PerOutcome constants (the benchmark
// grid spans too few supports to identify them; they come from the defaults
// or a calibration pass). Engines without samples keep their base
// coefficients unchanged. Coefficients are clamped non-negative so the
// monotonicity contract of Predict survives any sample set.
func Fit(base *Model, samples []Sample) *Model {
	m := &Model{Engines: make(map[string]Coeffs, len(base.Engines)), Shard: base.shardCoeffs()}
	for name, c := range base.Engines {
		m.Engines[name] = c
	}
	byEngine := make(map[string][]Sample)
	for _, s := range samples {
		byEngine[s.Engine] = append(byEngine[s.Engine], s)
	}
	for engine, ss := range byEngine {
		c, ok := m.Engines[engine]
		if !ok {
			// A new engine starts from zero overhead constants; the pair
			// coefficients are all the samples can identify.
			c = Coeffs{}
		}
		m.Engines[engine] = fitEngine(engine, c, ss)
	}
	return m
}

// fitEngine solves the per-pair decomposition for one engine by
// least squares over the shape regressors, clamping at zero.
func fitEngine(engine string, c Coeffs, ss []Sample) Coeffs {
	var x1s, x2s, ys []float64
	for _, s := range ss {
		n := s.W.effSupport()
		bits := clampBits(s.W.Bits)
		r := clampRadius(s.W.Radius, bits)
		scale := n * (n - 1) / 2
		if engine == EngineIncremental {
			scale = float64(s.W.Delta) * n
		}
		if scale <= 0 {
			continue
		}
		y := (s.NsPerOp - c.Setup - c.PerOutcome*n) / scale
		if y < 0 {
			y = 0
		}
		var x1, x2 float64
		if engine == EngineExact {
			// exact: y = PerPairFull·1 + PerAdmit·A
			x1, x2 = 1, admittedFrac(r, bits)
		} else {
			// blocked (and incremental's delta rows):
			// y = PerCand·Cand + PerAdmit·A
			x1, x2 = candFrac(engine, r, bits), admittedFrac(r, bits)
		}
		x1s, x2s, ys = append(x1s, x1), append(x2s, x2), append(ys, y)
	}
	if len(ys) == 0 {
		return c
	}
	a, b := leastSquares2(x1s, x2s, ys)
	if engine == EngineExact {
		c.PerPairFull, c.PerAdmit = a, b
		c.PerCand = 0
	} else {
		c.PerCand, c.PerAdmit = a, b
		c.PerPairFull = 0
	}
	return c
}

// leastSquares2 solves min ||y − a·x1 − b·x2||² with a, b ≥ 0: the
// unconstrained normal equations first, then — if a coefficient comes out
// negative — the corresponding single-regressor refit. Two regressors and a
// handful of rows need nothing heavier.
func leastSquares2(x1, x2, y []float64) (a, b float64) {
	var s11, s12, s22, s1y, s2y float64
	for i := range y {
		s11 += x1[i] * x1[i]
		s12 += x1[i] * x2[i]
		s22 += x2[i] * x2[i]
		s1y += x1[i] * y[i]
		s2y += x2[i] * y[i]
	}
	det := s11*s22 - s12*s12
	if det > 1e-12*s11*s22 {
		a = (s1y*s22 - s2y*s12) / det
		b = (s2y*s11 - s1y*s12) / det
	} else {
		// Collinear regressors (e.g. a single-radius sample set): put all
		// the signal on x1.
		a, b = ratio(s1y, s11), 0
	}
	if a < 0 {
		a, b = 0, ratio(s2y, s22)
	}
	if b < 0 {
		b, a = 0, ratio(s1y, s11)
	}
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	return a, b
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// DefaultModel returns the model fitted offline from the committed
// BENCH_core.json and BENCH_stream.json (see cmd/costfit, which regenerates
// these constants and gates their selection accuracy in CI). Setup and
// PerOutcome are set by hand, since Fit keeps them: flattening for exact,
// row rescaling for incremental, and for blocked the index build (a sort,
// O(N log N)) plus its scan structure. Blocked's 500 ns per outcome is that
// build at 2000-4000 outcomes, where the multi-index leaves a radius-2 scan
// only a few candidates per outcome; charged linearly it overprices blocked
// on small supports. Both pins bound it: at 600 ns the 2000-outcome radius-2
// row is predicted at 2.02x its measured time
// (TestCommittedBlockedPredictions), and at 400 ns the model picks blocked
// at 48 outcomes, where exact measured faster. The model puts the
// exact↔blocked crossover at 49-71 outcomes, against 48-128 measured at
// widths 8-20 (TestExactBlockedCrossover). Calibrate refines the pair constants on the
// serving host.
func DefaultModel() *Model {
	return &Model{Engines: map[string]Coeffs{
		EngineExact: {
			Setup: 500, PerOutcome: 30,
			PerPairFull: 15.26, PerAdmit: 23.92,
		},
		EngineBlocked: {
			Setup: 4000, PerOutcome: 500,
			PerCand: 1.82, PerAdmit: 1.18,
		},
		EngineIncremental: {
			Setup: 1000, PerOutcome: 60,
			PerCand: 7.23, PerAdmit: 0,
		},
	}, Shard: DefaultShardCoeffs()}
}

// Validate sanity-checks a model: every coefficient finite and
// non-negative, every engine predicting positive finite cost on a reference
// workload. Fit output always passes; hand-edited constant files go through
// this before SetActive.
func (m *Model) Validate() error {
	if len(m.Engines) == 0 {
		return fmt.Errorf("cost: model has no engines")
	}
	ref := Workload{Support: 1000, Bits: 20, Radius: 9}
	for name, c := range m.Engines {
		for _, v := range []float64{c.Setup, c.PerOutcome, c.PerPairFull, c.PerCand, c.PerAdmit} {
			if v < 0 || v != v || v > 1e15 {
				return fmt.Errorf("cost: engine %q has invalid coefficient %v", name, v)
			}
		}
		if ns, _ := m.Predict(name, ref); ns <= 0 {
			return fmt.Errorf("cost: engine %q predicts non-positive cost", name)
		}
	}
	for _, v := range []float64{m.Shard.StripeSetup, m.Shard.PerOutcomeWire, m.Shard.MergePerLevel} {
		if v < 0 || v != v || v > 1e15 {
			return fmt.Errorf("cost: invalid shard coefficient %v", v)
		}
	}
	return nil
}
