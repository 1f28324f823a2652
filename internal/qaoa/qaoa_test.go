package qaoa

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/noise"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBuildStructure(t *testing.T) {
	g := graph.Ring(4)
	p := StandardParams(2)
	c := Build(g, p)
	st := c.Stats()
	// 4 H + per layer (4 RZZ + 4 RX) * 2 layers = 4 + 16 = 20 gates.
	if st.Gates != 20 {
		t.Errorf("gates = %d, want 20", st.Gates)
	}
	if st.TwoQubit != 8 {
		t.Errorf("two-qubit = %d, want 8", st.TwoQubit)
	}
}

func TestZeroParamsGiveUniform(t *testing.T) {
	// beta = gamma = 0: the circuit is just the H layer, output uniform,
	// expectation of any unit-weight graph cost is 0.
	g := graph.Ring(5)
	d := IdealDist(g, Params{Betas: []float64{0}, Gammas: []float64{0}})
	if e := Expectation(d, g); !almostEq(e, 0, 1e-9) {
		t.Errorf("uniform expectation = %v", e)
	}
	if d.Len() != 32 {
		t.Errorf("support = %d, want 32", d.Len())
	}
}

func TestExpectationPointMass(t *testing.T) {
	g := graph.Ring(6)
	opt := g.BruteForce()
	b := dist.NewBuilder(6)
	b.Set(opt.Argmins[0], 1)
	d := b.Dist()
	if e := Expectation(d, g); !almostEq(e, opt.Cost, 1e-12) {
		t.Errorf("point-mass expectation = %v, want %v", e, opt.Cost)
	}
	if cr := CostRatio(d, g, opt.Cost); !almostEq(cr, 1, 1e-12) {
		t.Errorf("perfect CR = %v, want 1", cr)
	}
}

func TestQAOAP1BeatsRandomGuessing(t *testing.T) {
	// A tuned p=1 QAOA must achieve CR substantially above the uniform
	// distribution's 0.
	g := graph.Ring(6)
	cmin := g.BruteForce().Cost
	best := -math.MaxFloat64
	for _, beta := range []float64{0.2, 0.3, 0.4} {
		for _, gamma := range []float64{0.4, 0.6, 0.8} {
			d := IdealDist(g, Params{Betas: []float64{beta}, Gammas: []float64{gamma}})
			if cr := CostRatio(d, g, cmin); cr > best {
				best = cr
			}
		}
	}
	if best < 0.4 {
		t.Errorf("best p=1 CR = %v, expected > 0.4", best)
	}
}

func TestNoiseLowersCostRatio(t *testing.T) {
	// The central premise of §2.3: hardware noise degrades C_exp.
	rng := rand.New(rand.NewSource(21))
	g := graph.RandomRegular(8, 3, rng)
	cmin := g.BruteForce().Cost
	p := StandardParams(2)
	ideal := IdealDist(g, p)
	noisy := noise.ExecuteDist(Build(g, p), noise.IBMParisLike(), 4)
	crIdeal := CostRatio(ideal, g, cmin)
	crNoisy := CostRatio(noisy, g, cmin)
	if crNoisy >= crIdeal {
		t.Errorf("noise did not lower CR: ideal %v, noisy %v", crIdeal, crNoisy)
	}
	if crIdeal < 0.3 {
		t.Errorf("ideal CR suspiciously low: %v", crIdeal)
	}
}

func TestStandardParamsShape(t *testing.T) {
	for p := 1; p <= 5; p++ {
		ps := StandardParams(p)
		if err := ps.Validate(); err != nil {
			t.Fatal(err)
		}
		if ps.Layers() != p {
			t.Fatalf("layers = %d", ps.Layers())
		}
	}
	// Gammas ramp up, betas ramp down.
	ps := StandardParams(3)
	if !(ps.Gammas[0] < ps.Gammas[2]) || !(ps.Betas[0] > ps.Betas[2]) {
		t.Errorf("ramp shape wrong: %+v", ps)
	}
}

func TestSolutionRatiosAndCumulative(t *testing.T) {
	g := graph.Ring(4)
	cmin := g.BruteForce().Cost // -4
	b := dist.NewBuilder(4)
	b.Set(bitstr.MustParse("0101"), 0.5) // optimal, ratio 1
	b.Set(bitstr.MustParse("0000"), 0.5) // uncut, cost +4, ratio -1
	d := b.Dist()
	rm := SolutionRatios(d, g, cmin)
	if len(rm) != 2 {
		t.Fatalf("ratios = %v", rm)
	}
	if got := CumulativeAbove(rm, 0.99); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("cumulative above 0.99 = %v", got)
	}
	if got := CumulativeAbove(rm, -2); !almostEq(got, 1, 1e-12) {
		t.Errorf("cumulative above -2 = %v", got)
	}
}

func TestLandscapePeakAndSharpness(t *testing.T) {
	g := graph.Ring(4)
	cmin := g.BruteForce().Cost
	l := NewLandscape(g, cmin, 0.8, 1.6, 7, func(p Params) *dist.Dist {
		return IdealDist(g, p)
	})
	peak, _, _ := l.Peak()
	if peak < 0.3 {
		t.Errorf("ideal landscape peak = %v", peak)
	}
	if l.GradientSharpness() <= 0 {
		t.Error("flat ideal landscape")
	}
}

func TestHammerSharpensNoisyLandscape(t *testing.T) {
	// Fig. 10(b): post-processing with HAMMER must not flatten the noisy
	// landscape. (The full assertion lives in the experiments package; here
	// we check the evaluator plumbing end to end on a small instance.)
	g := graph.Ring(4)
	cmin := g.BruteForce().Cost
	dev := noise.IBMParisLike()
	noisyEval := func(p Params) *dist.Dist {
		return noise.ExecuteDist(Build(g, p), dev, 2)
	}
	l := NewLandscape(g, cmin, 0.8, 1.6, 5, noisyEval)
	if len(l.CR) != 5 || len(l.CR[0]) != 5 {
		t.Fatalf("landscape shape wrong")
	}
}

func TestOptimizeImprovesFromBadStart(t *testing.T) {
	g := graph.Ring(6)
	cmin := g.BruteForce().Cost
	obj := func(p Params) float64 {
		return CostRatio(IdealDist(g, p), g, cmin)
	}
	start := Params{Betas: []float64{0.05}, Gammas: []float64{0.05}}
	bestP, bestScore, evals := Optimize(start, obj, 25, 0.15)
	if bestScore <= obj(start) {
		t.Errorf("optimizer did not improve: %v", bestScore)
	}
	if bestScore < 0.45 {
		t.Errorf("optimizer stuck at %v", bestScore)
	}
	if evals < 5 {
		t.Errorf("suspiciously few evaluations: %d", evals)
	}
	if err := bestP.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	g := graph.Ring(4)
	good := StandardParams(1)
	for name, fn := range map[string]func(){
		"params mismatch": func() { Build(g, Params{Betas: []float64{1}, Gammas: []float64{1, 2}}) },
		"empty params":    func() { Build(g, Params{}) },
		"standard p=0":    func() { StandardParams(0) },
		"CR nonneg cmin":  func() { CostRatio(dist.NewBuilder(4).Dist(), g, 1) },
		"ratios cmin":     func() { SolutionRatios(dist.NewBuilder(4).Dist(), g, 0) },
		"landscape steps": func() { NewLandscape(g, -4, 1, 1, 1, func(Params) *dist.Dist { return nil }) },
		"optimize rounds": func() { Optimize(good, func(Params) float64 { return 0 }, 0, 0.1) },
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
}
