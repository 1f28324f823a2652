package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstr"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// randomDist builds a distribution with `support` distinct outcomes over an
// n-bit space with positive random masses.
func randomDist(t testing.TB, n, support int, seed int64) *Dist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if max := 1 << uint(n); support > max {
		support = max
	}
	d := New(n)
	for d.Len() < support {
		d.Set(bitstr.Bits(rng.Intn(1<<uint(n))), 0.01+rng.Float64())
	}
	return d
}

func TestSetAddProbTotal(t *testing.T) {
	d := New(4)
	d.Set(0b0101, 0.25)
	d.Add(0b0101, 0.25)
	d.Add(0b1111, 0.5)
	if d.Len() != 2 || !almostEq(d.Prob(0b0101), 0.5, 1e-15) || !almostEq(d.Total(), 1, 1e-15) {
		t.Fatalf("len=%d prob=%v total=%v", d.Len(), d.Prob(0b0101), d.Total())
	}
	d.Set(0b0101, 0.1)
	if !almostEq(d.Total(), 0.6, 1e-15) {
		t.Fatalf("total after Set = %v", d.Total())
	}
	if d.Prob(0b0000) != 0 {
		t.Fatalf("absent outcome has mass %v", d.Prob(0b0000))
	}
}

func TestZeroMassOutcomesStayInSupport(t *testing.T) {
	d := New(3)
	d.Set(0b001, 0)
	d.Set(0b010, 1)
	if d.Len() != 2 {
		t.Fatalf("support %d, want 2 (explicit zero kept)", d.Len())
	}
	d.Normalize()
	if d.Len() != 2 || d.Prob(0b001) != 0 {
		t.Fatalf("normalize dropped the zero outcome: %v", d)
	}
}

func TestNormalizeSumsToOne(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		d := randomDist(t, 10, 300, seed)
		d.Normalize()
		var sum float64
		d.Range(func(_ bitstr.Bits, p float64) { sum += p })
		if !almostEq(sum, 1, 1e-12) {
			t.Fatalf("seed %d: normalized sum %v", seed, sum)
		}
		if !almostEq(d.Total(), 1, 1e-12) {
			t.Fatalf("seed %d: Total() %v", seed, d.Total())
		}
	}
}

func TestRangeOrderStable(t *testing.T) {
	d := randomDist(t, 12, 500, 7)
	var first []bitstr.Bits
	d.Range(func(x bitstr.Bits, _ float64) { first = append(first, x) })
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("Range not strictly ascending at %d: %v >= %v", i, first[i-1], first[i])
		}
	}
	// Mutating an existing outcome must not perturb the order; repeated
	// passes and Outcomes agree element for element.
	d.Set(first[3], 9.9)
	var second []bitstr.Bits
	d.Range(func(x bitstr.Bits, _ float64) { second = append(second, x) })
	outs := d.Outcomes()
	if len(second) != len(first) || len(outs) != len(first) {
		t.Fatalf("lengths diverged: %d %d %d", len(first), len(second), len(outs))
	}
	for i := range first {
		if first[i] != second[i] || first[i] != outs[i] {
			t.Fatalf("order unstable at %d: %v %v %v", i, first[i], second[i], outs[i])
		}
	}
}

// TestConcurrentRangeAfterSet pins the read-only concurrency promise on the
// lazy key cache: the first Range after a Set that grows the support
// rebuilds the sorted keys, and several readers may make that first call at
// once. Each must see the whole support in ascending order. Run with -race.
func TestConcurrentRangeAfterSet(t *testing.T) {
	d := randomDist(t, 12, 500, 11)
	var fresh bitstr.Bits
	for round := 0; round < 20; round++ {
		for d.Prob(fresh) != 0 { // randomDist's masses are all positive
			fresh++
		}
		d.Set(fresh, 0.5) // a new outcome: the key cache is stale
		want := d.Len()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 6; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, prev := 0, bitstr.Bits(0)
				d.Range(func(x bitstr.Bits, _ float64) {
					if got > 0 && x <= prev {
						t.Errorf("round %d: Range not ascending: %b after %b", round, x, prev)
					}
					got, prev = got+1, x
				})
				if got != want {
					t.Errorf("round %d: Range visited %d outcomes, want %d", round, got, want)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

func TestTopKDeterministicOrdering(t *testing.T) {
	d := New(4)
	// Deliberate ties: equal probabilities must order by ascending outcome.
	d.Set(0b1000, 0.2)
	d.Set(0b0001, 0.2)
	d.Set(0b0010, 0.5)
	d.Set(0b0100, 0.1)
	want := []bitstr.Bits{0b0010, 0b0001, 0b1000, 0b0100}
	for trial := 0; trial < 10; trial++ {
		got := d.TopK(d.Len())
		if len(got) != len(want) {
			t.Fatalf("TopK len %d", len(got))
		}
		for i := range want {
			if got[i].X != want[i] {
				t.Fatalf("trial %d: TopK[%d] = %04b, want %04b", trial, i, got[i].X, want[i])
			}
		}
	}
	if got := d.TopK(2); len(got) != 2 || got[0].X != 0b0010 || got[1].X != 0b0001 {
		t.Fatalf("TopK(2) = %v", got)
	}
	if got := d.TopK(99); len(got) != 4 {
		t.Fatalf("TopK over support = %d entries", len(got))
	}
}

func TestTopKDescendingOnRandom(t *testing.T) {
	d := randomDist(t, 10, 200, 11)
	es := d.TopK(d.Len())
	for i := 1; i < len(es); i++ {
		if es[i-1].P < es[i].P {
			t.Fatalf("TopK not descending at %d: %v < %v", i, es[i-1].P, es[i].P)
		}
		if es[i-1].P == es[i].P && es[i-1].X >= es[i].X {
			t.Fatalf("TopK tie not broken by outcome at %d", i)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	d := randomDist(t, 8, 50, 3)
	c := d.Clone()
	if TVD(d, c) != 0 {
		t.Fatal("clone differs")
	}
	c.Set(0b1, 123)
	if d.Prob(0b1) == c.Prob(0b1) {
		t.Fatal("clone shares storage")
	}
}

func TestMarginal(t *testing.T) {
	d := New(5)
	d.Set(0b10011, 0.5) // low 3 bits: 011
	d.Set(0b00011, 0.25)
	d.Set(0b00100, 0.25)
	m := d.Marginal(3)
	if m.NumBits() != 3 {
		t.Fatalf("marginal width %d", m.NumBits())
	}
	if !almostEq(m.Prob(0b011), 0.75, 1e-15) || !almostEq(m.Prob(0b100), 0.25, 1e-15) {
		t.Fatalf("marginal = %v", m)
	}
	if !almostEq(m.Total(), d.Total(), 1e-15) {
		t.Fatalf("marginal mass %v vs %v", m.Total(), d.Total())
	}
}

func TestMostProbableTieBreak(t *testing.T) {
	d := New(3)
	d.Set(0b110, 0.4)
	d.Set(0b001, 0.4)
	d.Set(0b010, 0.2)
	if got := d.MostProbable(); got != 0b001 {
		t.Fatalf("MostProbable = %03b, want 001 (smaller outcome wins ties)", got)
	}
}

func TestEntropy(t *testing.T) {
	if h := Uniform(6).Entropy(); !almostEq(h, 6, 1e-12) {
		t.Fatalf("uniform entropy %v, want 6", h)
	}
	point := New(6)
	point.Set(0b101, 1)
	if h := point.Entropy(); h != 0 {
		t.Fatalf("point-mass entropy %v", h)
	}
}

func TestSampleDeterministicAndMassPreserving(t *testing.T) {
	d := randomDist(t, 9, 120, 5).Normalize()
	a := d.Sample(rand.New(rand.NewSource(77)), 4096)
	b := d.Sample(rand.New(rand.NewSource(77)), 4096)
	if a.Total() != 4096 || b.Total() != 4096 {
		t.Fatalf("totals %d %d", a.Total(), b.Total())
	}
	if TVD(a.Dist(), b.Dist()) != 0 {
		t.Fatal("identical seeds gave different samples")
	}
	// Sampled frequencies approach the distribution.
	big := d.Sample(rand.New(rand.NewSource(9)), 200000)
	if tvd := TVD(big.Dist(), d); tvd > 0.02 {
		t.Fatalf("sampled TVD %v", tvd)
	}
}

func TestSampleNeverDrawsZeroMassOutcomes(t *testing.T) {
	// Zero-mass outcomes stay in the support but must never be sampled —
	// including via the u == acc boundary fallback, which previously could
	// land on a trailing zero-mass key.
	d := New(4)
	d.Set(0b0000, 0) // zero-mass head
	d.Set(0b0101, 0.7)
	d.Set(0b1001, 0.3)
	d.Set(0b1111, 0) // zero-mass tail
	c := d.Sample(rand.New(rand.NewSource(5)), 10000)
	if c.Get(0b0000) != 0 || c.Get(0b1111) != 0 {
		t.Fatalf("sampled zero-mass outcomes: %d %d", c.Get(0b0000), c.Get(0b1111))
	}
	if c.Total() != 10000 {
		t.Fatalf("total %d", c.Total())
	}
}

func TestCountsRoundTrip(t *testing.T) {
	c := NewCounts(4)
	c.AddN(0b0011, 3)
	c.Add(0b0011)
	c.AddN(0b1000, 6)
	if c.Total() != 10 || c.Len() != 2 || c.Get(0b0011) != 4 {
		t.Fatalf("counts state: total=%d len=%d get=%d", c.Total(), c.Len(), c.Get(0b0011))
	}
	d := c.Dist()
	if !almostEq(d.Prob(0b0011), 0.4, 1e-15) || !almostEq(d.Total(), 1, 1e-15) {
		t.Fatalf("counts dist = %v", d)
	}
	var xs []bitstr.Bits
	c.Range(func(x bitstr.Bits, _ int) { xs = append(xs, x) })
	if len(xs) != 2 || xs[0] != 0b0011 || xs[1] != 0b1000 {
		t.Fatalf("counts range order %v", xs)
	}
}

func TestDenseSparseRoundTrip(t *testing.T) {
	d := randomDist(t, 8, 40, 13).Normalize()
	back := d.Dense().Sparse(0)
	if TVD(d, back) != 0 {
		t.Fatal("dense/sparse round trip changed the distribution")
	}
	v := NewVector(3)
	v.Set(0b001, 2)
	v.Set(0b111, 6)
	if v.Len() != 8 || v.At(0b111) != 6 || !almostEq(v.Total(), 8, 1e-15) {
		t.Fatalf("vector state: len=%d at=%v total=%v", v.Len(), v.At(0b111), v.Total())
	}
	v.Normalize()
	if !almostEq(v.At(0b111), 0.75, 1e-15) {
		t.Fatalf("normalized vector %v", v.Raw())
	}
	s := v.Sparse(0)
	if s.Len() != 2 {
		t.Fatalf("sparse kept %d entries", s.Len())
	}
}

func TestTVDProperties(t *testing.T) {
	a := randomDist(t, 7, 30, 1).Normalize()
	b := randomDist(t, 7, 30, 2).Normalize()
	if TVD(a, a) != 0 {
		t.Fatal("TVD(a,a) != 0")
	}
	if !almostEq(TVD(a, b), TVD(b, a), 1e-15) {
		t.Fatal("TVD not symmetric")
	}
	// Disjoint supports: TVD is exactly 1 for normalized distributions.
	l, r := New(2), New(2)
	l.Set(0b00, 1)
	r.Set(0b11, 1)
	if !almostEq(TVD(l, r), 1, 1e-15) {
		t.Fatalf("disjoint TVD %v", TVD(l, r))
	}
	if d := TVDVector(a.Dense(), b.Dense()); !almostEq(d, TVD(a, b), 1e-12) {
		t.Fatalf("TVDVector %v vs TVD %v", d, TVD(a, b))
	}
}

func TestUniform(t *testing.T) {
	u := Uniform(5)
	if u.Len() != 32 || !almostEq(u.Total(), 1, 1e-12) {
		t.Fatalf("uniform: len=%d total=%v", u.Len(), u.Total())
	}
	if !almostEq(u.Prob(0b10101), 1.0/32, 1e-15) {
		t.Fatalf("uniform prob %v", u.Prob(0b10101))
	}
}

// TestSyntheticGolden pins Synthetic's output bit for bit. The committed
// BENCH_*.json files and the cost-model calibration were measured on these
// histograms, so a generator that changes them no longer describes those
// numbers. The (width, support, seed) triples are the root benchmarks'
// (20, 2000, 42), hammerctl's (12, 300, 42), a 12-bit triple no caller
// draws (12, 256, 43) that stays because the pinned hash covers it, a shard
// test's (14, 300, 7), a full 6-bit space, and a 64-bit width.
func TestSyntheticGolden(t *testing.T) {
	h := sha256.New()
	for _, c := range []struct {
		n, support int
		seed       int64
	}{{20, 2000, 42}, {12, 300, 42}, {12, 256, 43}, {14, 300, 7}, {6, 64, 1}, {64, 50, 3}} {
		d := Synthetic(c.n, c.support, c.seed)
		if d.Len() != c.support || !almostEq(d.Total(), 1, 1e-12) {
			t.Fatalf("Synthetic(%d, %d, %d): support %d, total %v", c.n, c.support, c.seed, d.Len(), d.Total())
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(d.NumBits()))
		h.Write(b[:])
		d.Range(func(x bitstr.Bits, p float64) {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
			h.Write(b[:])
		})
	}
	const want = "24c6a631db2f6463de7e7546706335d615a730c29b7e5b706039f53120b976dd"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Synthetic digest %s, want %s", got, want)
	}
	// A support past the width's 2^n outcomes is the whole space.
	if d := Synthetic(3, 100, 1); d.Len() != 8 {
		t.Fatalf("Synthetic(3, 100, 1) support %d, want 8", d.Len())
	}
}

func TestStringRendersAscending(t *testing.T) {
	d := New(3)
	d.Set(0b110, 0.75)
	d.Set(0b001, 0.25)
	s := d.String()
	if !strings.Contains(s, "001") || strings.Index(s, "001") > strings.Index(s, "110") {
		t.Fatalf("String not ascending: %s", s)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero width":           func() { New(0) },
		"width overflow":       func() { New(65) },
		"outcome too wide":     func() { New(3).Set(0b1000, 1) },
		"normalize empty":      func() { New(3).Normalize() },
		"sample empty":         func() { New(3).Sample(rand.New(rand.NewSource(1)), 5) },
		"negative shots":       func() { Uniform(3).Sample(rand.New(rand.NewSource(1)), -1) },
		"marginal zero":        func() { Uniform(3).Marginal(0) },
		"marginal too wide":    func() { Uniform(3).Marginal(4) },
		"most probable empty":  func() { New(3).MostProbable() },
		"vector too wide":      func() { NewVector(MaxDenseBits + 1) },
		"uniform too wide":     func() { Uniform(MaxDenseBits + 1) },
		"tvd width mismatch":   func() { TVD(New(3), New(4)) },
		"counts negative":      func() { NewCounts(3).AddN(0, -1) },
		"counts empty to dist": func() { NewCounts(3).Dist() },
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
