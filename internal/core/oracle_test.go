package core

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// oracle is Algorithm 1 written straight from the paper, over the
// string-keyed histogram form. It calls nothing from dist, core or hamming:
// the Hamming distance of two outcomes is the number of positions where
// their key strings differ. The engines share their flattening, weighting
// and scoring code, so their cross-engine goldens cannot see a fault there;
// this reference can.
//
//   - The raw masses are normalized first.
//   - radius 0 means the default, the largest r with 2r < n; a radius
//     above n admits everything, as n does.
//   - CHS[0] = Σ Pr(x); for 1 ≤ d ≤ r, CHS[d] = Σ Pr(y) over ordered
//     pairs (x, y) at distance d.
//   - w[d] is 1/CHS[d] (0 where CHS[d] = 0), 1, or 2^-d by scheme.
//   - L(x) = Pr(x)·(Pr(x) + Σ w[d(x,y)]·Pr(y)) over y ≠ x within the
//     radius with Pr(y) < Pr(x); without the filter, over every such y.
//   - topM above 0 and below the support truncates (Options.TopM): the
//     outcomes ranked by descending Pr, ties by ascending key, split into
//     the topM head and the tail. CHS and L sum over head pairs only, at
//     the masses normalized over every outcome, and a tail outcome scores
//     L(x) = Pr(x)².
//   - The result is L normalized.
func oracle(hist map[string]float64, radius int, scheme WeightScheme, filter bool, topM int) map[string]float64 {
	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := len(keys[0])
	var raw float64
	for _, k := range keys {
		raw += hist[k]
	}
	pr := make([]float64, len(keys))
	for i, k := range keys {
		pr[i] = hist[k] / raw
	}
	r := radius
	if r == 0 {
		for 2*(r+1) < n {
			r++
		}
	}
	r = min(r, n)
	head := make([]bool, len(keys))
	byMass := make([]int, len(keys))
	for i := range byMass {
		byMass[i] = i
	}
	sort.Slice(byMass, func(a, b int) bool {
		i, j := byMass[a], byMass[b]
		if pr[i] != pr[j] {
			return pr[i] > pr[j]
		}
		return keys[i] < keys[j]
	})
	if topM <= 0 || topM > len(keys) {
		topM = len(keys)
	}
	for _, i := range byMass[:topM] {
		head[i] = true
	}
	distance := func(a, b string) int {
		d := 0
		for i := range len(a) {
			if a[i] != b[i] {
				d++
			}
		}
		return d
	}

	chs := make([]float64, r+1)
	for i, x := range keys {
		if !head[i] {
			continue
		}
		chs[0] += pr[i]
		for j, y := range keys {
			if d := distance(x, y); i != j && head[j] && d <= r {
				chs[d] += pr[j]
			}
		}
	}
	w := make([]float64, r+1)
	for d := range w {
		switch scheme {
		case InverseCHS:
			if chs[d] != 0 {
				w[d] = 1 / chs[d]
			}
		case UniformWeight:
			w[d] = 1
		case ExpDecay:
			w[d] = math.Pow(2, -float64(d))
		}
	}

	l := make([]float64, len(keys))
	var z float64
	for i, x := range keys {
		s := pr[i]
		for j, y := range keys {
			if d := distance(x, y); head[i] && i != j && head[j] && d <= r && (!filter || pr[j] < pr[i]) {
				s += w[d] * pr[j]
			}
		}
		l[i] = pr[i] * s
		z += l[i]
	}
	out := make(map[string]float64, len(keys))
	for i, k := range keys {
		out[k] = l[i] / z
	}
	return out
}

// histOf is the string-keyed form of a distribution, for the oracle.
func histOf(d *dist.Dist) map[string]float64 {
	h := make(map[string]float64, d.Len())
	d.Range(func(x bitstr.Bits, p float64) { h[bitstr.Format(x, d.NumBits())] = p })
	return h
}

// oracleOf is the oracle's reconstruction of hist under opts.
func oracleOf(hist map[string]float64, opts Options) map[string]float64 {
	return oracle(hist, opts.Radius, opts.Weights, !opts.DisableFilter, opts.TopM)
}

// checkOracle fails unless got has want's support and every mass within
// 1e-12 of it.
func checkOracle(t testing.TB, label string, want map[string]float64, got *dist.Dist) {
	t.Helper()
	have := histOf(got)
	if len(have) != len(want) {
		t.Fatalf("%s: support %d, oracle %d", label, len(have), len(want))
	}
	for k, p := range want {
		q, ok := have[k]
		if !ok || !(math.Abs(p-q) <= 1e-12) {
			t.Fatalf("%s: outcome %s: %v (present %v), oracle %v", label, k, q, ok, p)
		}
	}
}

// TestOracleByHand pins the oracle itself to TestAlgorithm1ByHand's worked
// example, in raw counts: 50/30/20 normalize to that example's masses.
func TestOracleByHand(t *testing.T) {
	got := oracle(map[string]float64{"1111": 50, "1110": 30, "0011": 20}, 0, InverseCHS, true, 0)
	for k, want := range map[string]float64{"1111": 0.4375 / 0.5675, "1110": 0.09 / 0.5675, "0011": 0.04 / 0.5675} {
		if !almostEq(got[k], want, 1e-15) {
			t.Errorf("%s: %v, want %v", k, got[k], want)
		}
	}
}

// countHist draws an n-bit histogram of integer shot counts: a heavy key,
// outcomes a few flips from it, and a uniform tail, with counts from a
// small range so equal masses (the filter's tie rule) are common.
func countHist(n, support int, seed int64) map[bitstr.Bits]float64 {
	rng := rand.New(rand.NewSource(seed))
	all := bitstr.AllOnes(n)
	key := bitstr.Bits(rng.Uint64()) & all
	h := map[bitstr.Bits]float64{key: 500}
	for len(h) < support {
		x := bitstr.Bits(rng.Uint64()) & all
		if rng.Intn(3) > 0 {
			x = key
			for k := 1 + rng.Intn(4); k > 0; k-- {
				x = bitstr.Flip(x, rng.Intn(n))
			}
		}
		h[x] += float64(1 + rng.Intn(20))
	}
	return h
}

// TestCountScaling is a metamorphic check: HAMMER reads only the normalized
// histogram, so multiplying every count by k must not move its output. On
// exact, on blocked (both of its scans) and on the stream path, the
// reconstruction of the scaled counts stays within 1e-12 of the unscaled one
// per outcome, and both stay within 1e-12 of the oracle.
func TestCountScaling(t *testing.T) {
	for _, n := range []int{12, 20} {
		counts := countHist(n, 400, int64(n))
		hist := make(map[string]float64, len(counts))
		for x, c := range counts {
			hist[bitstr.Format(x, n)] = c
		}
		for _, opts := range []Options{{}, {Radius: 3}, {Weights: ExpDecay, Radius: 4}, {DisableFilter: true, Radius: 2}} {
			want := oracleOf(hist, opts)
			var base [3]*dist.Dist
			for _, k := range []float64{1, 3, 1000} {
				scaled := make(map[string]float64, len(hist))
				for s, c := range hist {
					scaled[s] = c * k
				}
				in, _, err := dist.FromHistogram(scaled)
				if err != nil {
					t.Fatal(err)
				}
				inc := NewIncremental(n, opts)
				for _, x := range slices.Sorted(maps.Keys(counts)) {
					inc.Add(x, counts[x]*k)
				}
				exact, blocked := opts, opts
				exact.Engine, blocked.Engine = EngineExact, EngineBlocked
				for i, out := range []*dist.Dist{
					Reconstruct(in, exact).Out,
					Reconstruct(in, blocked).Out,
					inc.Snapshot().Out,
				} {
					label := []string{"exact", "blocked", "stream"}[i]
					checkOracle(t, label, want, out)
					if k == 1 {
						base[i] = out
						continue
					}
					base[i].Range(func(x bitstr.Bits, p float64) {
						if q := out.Prob(x); !(math.Abs(p-q) <= 1e-12) {
							t.Fatalf("n=%d %+v %s x%v: outcome %b: %v, unscaled %v", n, opts, label, k, x, q, p)
						}
					})
				}
			}
		}
	}
}
