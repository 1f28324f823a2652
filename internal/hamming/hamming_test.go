package hamming

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// paperExample is the output distribution of Fig. 6(a).
func paperExample() *dist.Dist {
	b := dist.NewBuilder(3)
	b.Set(bitstr.MustParse("111"), 0.30)
	b.Set(bitstr.MustParse("101"), 0.40)
	b.Set(bitstr.MustParse("110"), 0.05)
	b.Set(bitstr.MustParse("011"), 0.10)
	b.Set(bitstr.MustParse("010"), 0.10)
	b.Set(bitstr.MustParse("001"), 0.05)
	return b.Dist()
}

func TestSpectrumSingleCorrect(t *testing.T) {
	d := paperExample()
	correct := []bitstr.Bits{bitstr.MustParse("111")}
	s := NewSpectrum(d, correct)
	// Bin 0: 111 (0.30). Bin 1: 101, 110, 011 (0.55). Bin 2: 010, 001 (0.15).
	if !almostEq(s.Bins[0], 0.30, 1e-12) {
		t.Errorf("bin0 = %v", s.Bins[0])
	}
	if !almostEq(s.Bins[1], 0.55, 1e-12) {
		t.Errorf("bin1 = %v", s.Bins[1])
	}
	if !almostEq(s.Bins[2], 0.15, 1e-12) {
		t.Errorf("bin2 = %v", s.Bins[2])
	}
	if s.Counts[0] != 1 || s.Counts[1] != 3 || s.Counts[2] != 2 || s.Counts[3] != 0 {
		t.Errorf("counts = %v", s.Counts)
	}
	var total float64
	for _, b := range s.Bins {
		total += b
	}
	if !almostEq(total, 1, 1e-12) {
		t.Errorf("spectrum mass = %v", total)
	}
}

func TestSpectrumMultipleCorrect(t *testing.T) {
	// With both all-zero and all-one correct (GHZ), min distance applies.
	b := dist.NewBuilder(4)
	b.Set(bitstr.MustParse("0000"), 0.4)
	b.Set(bitstr.MustParse("1111"), 0.4)
	b.Set(bitstr.MustParse("1110"), 0.1) // dist 1 from 1111
	b.Set(bitstr.MustParse("0011"), 0.1) // dist 2 from both
	d := b.Dist()
	s := NewSpectrum(d, []bitstr.Bits{0b0000, 0b1111})
	if !almostEq(s.Bins[0], 0.8, 1e-12) || !almostEq(s.Bins[1], 0.1, 1e-12) || !almostEq(s.Bins[2], 0.1, 1e-12) {
		t.Errorf("bins = %v", s.Bins)
	}
}

func TestBinAverage(t *testing.T) {
	d := paperExample()
	s := NewSpectrum(d, []bitstr.Bits{bitstr.MustParse("111")})
	if !almostEq(s.BinAverage(1), 0.55/3, 1e-12) {
		t.Errorf("BinAverage(1) = %v", s.BinAverage(1))
	}
	if s.BinAverage(3) != 0 {
		t.Errorf("empty bin average = %v", s.BinAverage(3))
	}
	if s.BinAverage(-1) != 0 || s.BinAverage(99) != 0 {
		t.Error("out-of-range bin average should be 0")
	}
}

func TestEHD(t *testing.T) {
	d := paperExample()
	correct := []bitstr.Bits{bitstr.MustParse("111")}
	// 0.30*0 + 0.55*1 + 0.15*2 = 0.85
	if got := EHD(d, correct); !almostEq(got, 0.85, 1e-12) {
		t.Errorf("EHD = %v, want 0.85", got)
	}
}

func TestEHDBoundaryCases(t *testing.T) {
	// Perfect output: EHD = 0.
	b := dist.NewBuilder(5)
	b.Set(0b10101, 1)
	d := b.Dist()
	if got := EHD(d, []bitstr.Bits{0b10101}); got != 0 {
		t.Errorf("perfect EHD = %v", got)
	}
	// Uniform distribution: EHD = n/2 exactly.
	for _, n := range []int{4, 8, 10} {
		u := dist.Uniform(n)
		got := EHD(u, []bitstr.Bits{0})
		if !almostEq(got, UniformEHD(n), 1e-9) {
			t.Errorf("uniform EHD(n=%d) = %v, want %v", n, got, UniformEHD(n))
		}
	}
}

func TestEHDInvariantUnderCorrectRelabeling(t *testing.T) {
	// XOR-translating every outcome and the correct key together preserves EHD.
	rng := rand.New(rand.NewSource(3))
	n := 8
	b := dist.NewBuilder(n)
	for i := 0; i < 30; i++ {
		b.Add(bitstr.Bits(rng.Intn(1<<n)), rng.Float64())
	}
	d := b.Dist().Normalize()
	key := bitstr.Bits(rng.Intn(1 << n))
	mask := bitstr.Bits(rng.Intn(1 << n))
	bld := dist.NewBuilder(n)
	d.Range(func(x bitstr.Bits, p float64) { bld.Add(x^mask, p) })
	shifted := bld.Dist()
	if !almostEq(EHD(d, []bitstr.Bits{key}), EHD(shifted, []bitstr.Bits{key ^ mask}), 1e-12) {
		t.Error("EHD not invariant under XOR relabeling")
	}
}

func TestCHS(t *testing.T) {
	d := paperExample()
	x := bitstr.MustParse("111")
	chs := CHS(d, x, 3)
	want := []float64{0.30, 0.55, 0.15, 0}
	for k := range want {
		if !almostEq(chs[k], want[k], 1e-12) {
			t.Errorf("CHS[%d] = %v, want %v", k, chs[k], want[k])
		}
	}
	// Radius truncation.
	chs1 := CHS(d, x, 1)
	if len(chs1) != 2 {
		t.Errorf("CHS radius 1 length = %d", len(chs1))
	}
}

func TestCHSNegativeRadiusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	CHS(paperExample(), 0, -1)
}

func TestAverageCHSMass(t *testing.T) {
	// With full radius n, each CHS sums to total mass 1, so the weighted
	// average CHS must also sum to 1.
	d := paperExample()
	avg := AverageCHS(d, 3)
	var total float64
	for _, v := range avg {
		total += v
	}
	if !almostEq(total, 1, 1e-12) {
		t.Errorf("average CHS mass = %v", total)
	}
}

// TestAverageCHSMatchesWeightedCHS: the average CHS is the mean of every
// outcome's own CHS vector weighted by its probability, at every radius.
func TestAverageCHSMatchesWeightedCHS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 10
	bld := dist.NewBuilder(n)
	for i := 0; i < 200; i++ {
		bld.Add(bitstr.Bits(rng.Intn(1<<n)), rng.Float64())
	}
	d := bld.Dist().Normalize()
	for _, maxD := range []int{0, 2, 5, n} {
		want := make([]float64, maxD+1)
		d.Range(func(x bitstr.Bits, px float64) {
			for k, v := range CHS(d, x, maxD) {
				want[k] += px * v
			}
		})
		got := AverageCHS(d, maxD)
		for k := range want {
			if !almostEq(got[k], want[k], 1e-12) {
				t.Fatalf("maxD=%d k=%d: %v, weighted CHS %v", maxD, k, got[k], want[k])
			}
		}
	}
}

func TestCorrectOutcomeHasRicherNeighborhoodThanFrequentIncorrect(t *testing.T) {
	// The paper's Fig. 6 observation: "111" has more distance-1 neighbors
	// than the most frequent outcome "101".
	d := paperExample()
	chsCorrect := CHS(d, bitstr.MustParse("111"), 1)
	chsTop := CHS(d, bitstr.MustParse("101"), 1)
	if chsCorrect[1] <= chsTop[1] {
		t.Errorf("correct outcome neighborhood %v not richer than top incorrect %v",
			chsCorrect[1], chsTop[1])
	}
}

func TestMarginalFlipRates(t *testing.T) {
	// Bit 1 flips with probability 0.3; others never flip.
	b := dist.NewBuilder(3)
	key := bitstr.MustParse("000")
	b.Set(key, 0.7)
	b.Set(bitstr.MustParse("010"), 0.3)
	d := b.Dist()
	rates := MarginalFlipRates(d, []bitstr.Bits{key})
	want := []float64{0, 0.3, 0}
	for q := range want {
		if !almostEq(rates[q], want[q], 1e-12) {
			t.Errorf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMarginalFlipRatesDetectBadQubit(t *testing.T) {
	// A systematically flipped qubit shows a rate above 1/2.
	b := dist.NewBuilder(4)
	key := bitstr.MustParse("0000")
	b.Set(key, 0.2)
	b.Set(bitstr.MustParse("0100"), 0.65) // bit 2 flipped dominantly
	b.Set(bitstr.MustParse("0101"), 0.15) // bits 0 and 2
	d := b.Dist()
	rates := MarginalFlipRates(d, []bitstr.Bits{key})
	if rates[2] < 0.5 {
		t.Errorf("bad qubit not flagged: rates = %v", rates)
	}
	if rates[3] != 0 {
		t.Errorf("clean qubit has rate %v", rates[3])
	}
}

func TestMarginalFlipRatesMultiCorrect(t *testing.T) {
	// With both GHZ outcomes correct, an outcome one flip from all-ones is
	// attributed to all-ones, not measured against all-zeros.
	b := dist.NewBuilder(4)
	b.Set(bitstr.MustParse("0000"), 0.5)
	b.Set(bitstr.MustParse("1110"), 0.5) // 1 flip from 1111
	d := b.Dist()
	rates := MarginalFlipRates(d, []bitstr.Bits{0b0000, 0b1111})
	if !almostEq(rates[0], 0.5, 1e-12) {
		t.Errorf("rates = %v", rates)
	}
	if rates[1] != 0 || rates[2] != 0 || rates[3] != 0 {
		t.Errorf("spurious flips attributed: %v", rates)
	}
}
