package metrics

import (
	"math"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func sample() *dist.Dist {
	b := dist.NewBuilder(3)
	b.Set(bitstr.MustParse("111"), 0.30)
	b.Set(bitstr.MustParse("101"), 0.40)
	b.Set(bitstr.MustParse("011"), 0.20)
	b.Set(bitstr.MustParse("000"), 0.10)
	return b.Dist()
}

func TestPSTSingleCorrect(t *testing.T) {
	d := sample()
	if got := PST(d, []bitstr.Bits{bitstr.MustParse("111")}); !almostEq(got, 0.30, 1e-12) {
		t.Errorf("PST = %v", got)
	}
}

func TestPSTMultipleCorrect(t *testing.T) {
	d := sample()
	correct := []bitstr.Bits{bitstr.MustParse("111"), bitstr.MustParse("000")}
	if got := PST(d, correct); !almostEq(got, 0.40, 1e-12) {
		t.Errorf("PST multi = %v", got)
	}
	// Duplicates in the correct set must not double count.
	dup := []bitstr.Bits{bitstr.MustParse("111"), bitstr.MustParse("111")}
	if got := PST(d, dup); !almostEq(got, 0.30, 1e-12) {
		t.Errorf("PST dup = %v", got)
	}
}

func TestIST(t *testing.T) {
	d := sample()
	// Correct 111 (0.30); top incorrect 101 (0.40): IST = 0.75.
	if got := IST(d, []bitstr.Bits{bitstr.MustParse("111")}); !almostEq(got, 0.75, 1e-12) {
		t.Errorf("IST = %v", got)
	}
	// With both 111 and 101 correct, best correct 0.4, top incorrect 011 (0.2): 2.0.
	correct := []bitstr.Bits{bitstr.MustParse("111"), bitstr.MustParse("101")}
	if got := IST(d, correct); !almostEq(got, 2.0, 1e-12) {
		t.Errorf("IST multi = %v", got)
	}
}

func TestISTExceedingOneMeansInferable(t *testing.T) {
	b := dist.NewBuilder(2)
	b.Set(0b11, 0.6)
	b.Set(0b00, 0.4)
	d := b.Dist()
	if got := IST(d, []bitstr.Bits{0b11}); got <= 1 {
		t.Errorf("IST = %v, want > 1", got)
	}
}

func TestImprovementAggregation(t *testing.T) {
	ims := []Improvement{
		{Base: 0.10, Treated: 0.20}, // 2x
		{Base: 0.20, Treated: 0.10}, // 0.5x
		{Base: 0.30, Treated: 0.30}, // 1x
	}
	if got := GeoMeanRatio(ims); !almostEq(got, 1, 1e-12) {
		t.Errorf("gmean = %v", got)
	}
	if got := MaxRatio(ims); !almostEq(got, 2, 1e-12) {
		t.Errorf("max = %v", got)
	}
}

func TestPSTSingleOutcomeHistogram(t *testing.T) {
	// A support-1 histogram: PST is 1 when the outcome is correct, 0 when
	// the correct outcome was never observed.
	b := dist.NewBuilder(4)
	b.Set(0b1010, 1)
	d := b.Dist()
	if got := PST(d, []bitstr.Bits{0b1010}); !almostEq(got, 1, 1e-12) {
		t.Errorf("PST correct singleton = %v", got)
	}
	if got := PST(d, []bitstr.Bits{0b0101}); got != 0 {
		t.Errorf("PST unobserved correct = %v", got)
	}
}

func TestISTSingleOutcomeHistogram(t *testing.T) {
	// Support-1, incorrect outcome: the correct outcome has zero mass, the
	// top incorrect carries everything — IST is exactly 0, not a panic (an
	// incorrect outcome was observed, so the ratio is well defined).
	b := dist.NewBuilder(4)
	b.Set(0b1111, 1)
	d := b.Dist()
	if got := IST(d, []bitstr.Bits{0b0000}); got != 0 {
		t.Errorf("IST all-incorrect singleton = %v", got)
	}
	// Support-1, correct outcome: no incorrect observation — undefined,
	// must panic (documented contract).
	defer func() {
		if recover() == nil {
			t.Error("IST with no incorrect outcomes did not panic")
		}
	}()
	IST(d, []bitstr.Bits{0b1111})
}

func TestISTExactTie(t *testing.T) {
	// Correct and top incorrect tied: IST is exactly 1 — the boundary the
	// paper reads as "not inferable" (the criterion is IST > 1).
	b := dist.NewBuilder(3)
	b.Set(0b111, 0.35)
	b.Set(0b000, 0.35)
	b.Set(0b001, 0.30)
	d := b.Dist()
	if got := IST(d, []bitstr.Bits{0b111}); got != 1 {
		t.Errorf("tied IST = %v, want exactly 1", got)
	}
	// A tie within the correct set takes the shared best value.
	if got := IST(d, []bitstr.Bits{0b111, 0b000}); !almostEq(got, 0.35/0.30, 1e-12) {
		t.Errorf("correct-set tie IST = %v", got)
	}
}

func TestPSTTiesAndZeroMassOutcomes(t *testing.T) {
	// Zero-mass outcomes stay in the support (observed with vanishing
	// likelihood); PST over them is well-defined 0, and ties among correct
	// outcomes sum, not max.
	b := dist.NewBuilder(2)
	b.Set(0b00, 0.5)
	b.Set(0b01, 0.5)
	b.Set(0b10, 0)
	d := b.Dist()
	if got := PST(d, []bitstr.Bits{0b10}); got != 0 {
		t.Errorf("PST zero-mass correct = %v", got)
	}
	if got := PST(d, []bitstr.Bits{0b00, 0b01}); !almostEq(got, 1, 1e-12) {
		t.Errorf("PST tied pair = %v", got)
	}
}

func TestImprovementEdgeValues(t *testing.T) {
	// Zero treated over positive base is a legal 0x ratio (a metric
	// collapsing to zero), and the aggregators propagate it.
	if got := (Improvement{Base: 0.5, Treated: 0}).Ratio(); got != 0 {
		t.Errorf("zero treated ratio = %v", got)
	}
	if got := MaxRatio([]Improvement{{Base: 1, Treated: 0}, {Base: 1, Treated: 0.25}}); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("MaxRatio with zero member = %v", got)
	}
}

func TestPanics(t *testing.T) {
	d := sample()
	b := dist.NewBuilder(2)
	b.Set(0b11, 1)
	noErrors := b.Dist()
	for name, fn := range map[string]func(){
		"PST empty correct": func() { PST(d, nil) },
		"IST empty correct": func() { IST(d, nil) },
		"IST no incorrect":  func() { IST(noErrors, []bitstr.Bits{0b11}) },
		"ratio zero base":   func() { (Improvement{Base: 0, Treated: 1}).Ratio() },
		"max empty":         func() { MaxRatio(nil) },
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
