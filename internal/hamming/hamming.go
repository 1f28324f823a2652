// Package hamming implements the Hamming-space analysis machinery of the
// HAMMER paper (§3): the Hamming spectrum of an output distribution, the
// Expected Hamming Distance (EHD), and the Cumulative Hamming Strength (CHS)
// vectors used by the reconstruction algorithm.
//
// The quadratic accumulations (AverageCHS, GlobalCHS) and the per-outcome
// minimum-distance scans (NewSpectrum, EHD) run through the popcount-
// bucketed dist.Index: weight buckets outside the query radius are skipped
// wholesale, and |popcount(x)-popcount(c)| lower-bounds each candidate
// distance so most exact popcounts never execute. Callers analyzing one
// distribution several ways should build the index once and use the
// *Indexed variants.
package hamming

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// Spectrum is the paper's Hamming spectrum (Fig. 3a): bin k holds the total
// probability of all outcomes whose minimum Hamming distance to the correct
// answer set is exactly k. Bins run from 0 to n inclusive.
type Spectrum struct {
	NumBits int
	Bins    []float64 // length NumBits+1
	Counts  []int     // unique outcomes per bin
}

// NewSpectrum buckets every outcome of d by its minimum Hamming distance to
// the set of correct outcomes. The correct set must be non-empty. The scan is
// linear with the weight-difference lower bound computed inline; callers that
// already hold an index should use NewSpectrumIndexed.
func NewSpectrum(d *dist.Dist, correct []bitstr.Bits) *Spectrum {
	n := d.NumBits()
	s := &Spectrum{
		NumBits: n,
		Bins:    make([]float64, n+1),
		Counts:  make([]int, n+1),
	}
	cw := correctWeights(correct)
	d.Range(func(x bitstr.Bits, p float64) {
		k := minDistanceWeighted(x, bitstr.Weight(x), correct, cw, n)
		s.Bins[k] += p
		s.Counts[k]++
	})
	return s
}

// NewSpectrumIndexed is NewSpectrum over a prebuilt index, letting callers
// amortize the index across several analyses of the same distribution.
func NewSpectrumIndexed(ix *dist.Index, correct []bitstr.Bits) *Spectrum {
	n := ix.NumBits()
	s := &Spectrum{
		NumBits: n,
		Bins:    make([]float64, n+1),
		Counts:  make([]int, n+1),
	}
	cw := correctWeights(correct)
	for _, e := range ix.Ranked() {
		k := minDistanceWeighted(e.X, e.W, correct, cw, n)
		s.Bins[k] += e.P
		s.Counts[k]++
	}
	return s
}

// correctWeights precomputes the Hamming weight of every correct outcome so
// minimum-distance scans can use the weight-difference lower bound.
func correctWeights(correct []bitstr.Bits) []int {
	if len(correct) == 0 {
		panic("hamming: empty correct set")
	}
	cw := make([]int, len(correct))
	for i, c := range correct {
		cw[i] = bitstr.Weight(c)
	}
	return cw
}

// minDistanceWeighted returns the minimum Hamming distance from x (of known
// Hamming weight wx) to the correct set, skipping candidates whose weight
// already differs by at least the best distance found so far (the same
// triangle inequality the blocked reconstruction engine's weight window prunes with).
func minDistanceWeighted(x bitstr.Bits, wx int, correct []bitstr.Bits, cw []int, n int) int {
	best := n + 1
	for i, c := range correct {
		lb := wx - cw[i]
		if lb < 0 {
			lb = -lb
		}
		if lb >= best {
			continue
		}
		if d := bitstr.Distance(x, c); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}

// BinAverage returns the average probability of a unique outcome in bin k
// (the "Average Probability of Hamming Bin" trace in Fig. 3b/3c). Bins with
// no observed outcomes report zero.
func (s *Spectrum) BinAverage(k int) float64 {
	if k < 0 || k >= len(s.Bins) || s.Counts[k] == 0 {
		return 0
	}
	return s.Bins[k] / float64(s.Counts[k])
}

// UniformBinMass returns the probability mass a uniform-error model places in
// bin k: C(n,k) / 2^n. This is the dotted reference line in the paper's
// spectrum plots.
func UniformBinMass(n, k int) float64 {
	return float64(bitstr.CountAtDistance(n, k)) / float64(uint64(1)<<uint(n))
}

// EHD computes the Expected Hamming Distance (§3.3): the probability-weighted
// average of the minimum Hamming distance from each outcome to the correct
// set. EHD is 0 for a noise-free distribution and approaches n/2 for a
// uniform distribution.
func EHD(d *dist.Dist, correct []bitstr.Bits) float64 {
	cw := correctWeights(correct)
	n := d.NumBits()
	var e float64
	d.Range(func(x bitstr.Bits, p float64) {
		e += p * float64(minDistanceWeighted(x, bitstr.Weight(x), correct, cw, n))
	})
	return e
}

// EHDIndexed is EHD over a prebuilt index, reusing its stored weights.
func EHDIndexed(ix *dist.Index, correct []bitstr.Bits) float64 {
	cw := correctWeights(correct)
	n := ix.NumBits()
	var e float64
	for _, entry := range ix.Ranked() {
		e += entry.P * float64(minDistanceWeighted(entry.X, entry.W, correct, cw, n))
	}
	return e
}

// UniformEHD returns the exact EHD of the uniform distribution over an n-bit
// space relative to a single correct outcome: sum_k k*C(n,k)/2^n = n/2.
func UniformEHD(n int) float64 {
	return float64(n) / 2
}

// CHS computes the Cumulative Hamming Strength vector (§4.3) of outcome x
// against distribution d: entry k holds the total probability of outcomes at
// Hamming distance exactly k from x, for k in [0, maxD]. The paper limits
// maxD to n/2; callers pass the radius they want.
func CHS(d *dist.Dist, x bitstr.Bits, maxD int) []float64 {
	if maxD < 0 {
		panic(fmt.Sprintf("hamming: negative CHS radius %d", maxD))
	}
	v := make([]float64, maxD+1)
	d.Range(func(y bitstr.Bits, p float64) {
		if k := bitstr.Distance(x, y); k <= maxD {
			v[k] += p
		}
	})
	return v
}

// AverageCHS computes the probability-weighted average CHS across every
// outcome in the distribution; this is the "average of all outcomes" curve
// in Fig. 7b and the basis for HAMMER's per-distance weights. Pairs outside
// the weight window are pruned through the popcount buckets, so the cost
// drops well below the naive O(N²) for small radii.
func AverageCHS(d *dist.Dist, maxD int) []float64 {
	return AverageCHSIndexed(dist.NewIndex(d), maxD)
}

// AverageCHSIndexed is AverageCHS over a prebuilt index.
func AverageCHSIndexed(ix *dist.Index, maxD int) []float64 {
	if maxD < 0 {
		panic(fmt.Sprintf("hamming: negative CHS radius %d", maxD))
	}
	avg := make([]float64, maxD+1)
	for _, e := range ix.Ranked() {
		px := e.P
		ix.RangeBall(e.X, maxD, func(f dist.IndexEntry, k int) {
			avg[k] += px * f.P
		})
	}
	return avg
}

// GlobalCHS computes the unweighted pairwise accumulation used verbatim in
// Algorithm 1 of the paper's appendix: CHS[k] = sum over ordered pairs (x,y)
// with Hamming distance k < len of P(y). It differs from AverageCHS by not
// weighting the outer outcome by its probability.
func GlobalCHS(d *dist.Dist, maxD int) []float64 {
	return GlobalCHSIndexed(dist.NewIndex(d), maxD)
}

// GlobalCHSIndexed is GlobalCHS over a prebuilt index. Each unordered pair
// is visited once through the bucket suffixes and contributes both of its
// ordered directions, P(x)+P(y); the self pair contributes P(x) at k = 0.
func GlobalCHSIndexed(ix *dist.Index, maxD int) []float64 {
	if maxD < 0 {
		panic(fmt.Sprintf("hamming: negative CHS radius %d", maxD))
	}
	g := make([]float64, maxD+1)
	for _, e := range ix.Ranked() {
		g[0] += e.P
		ix.RangePairsAfter(e, maxD, func(f dist.IndexEntry, k int) {
			g[k] += e.P + f.P
		})
	}
	return g
}

// Edge is a Hamming-graph edge between two observed outcomes (Fig. 6).
type Edge struct {
	X, Y bitstr.Bits
	D    int
}

// Graph lists the Hamming-graph edges between all pairs of observed outcomes
// with distance at most maxD, the representation of Fig. 6(b-c). Outcomes are
// visited in deterministic ascending order and each unordered pair appears
// once with X < Y.
func Graph(d *dist.Dist, maxD int) []Edge {
	outs := d.Outcomes()
	var edges []Edge
	for i, x := range outs {
		for _, y := range outs[i+1:] {
			if k := bitstr.Distance(x, y); k <= maxD {
				edges = append(edges, Edge{X: x, Y: y, D: k})
			}
		}
	}
	return edges
}

// MarginalFlipRates estimates, for each bit position, the probability that
// the bit is flipped relative to the (nearest) correct outcome. This is the
// per-qubit error diagnostic used to spot systematically miscalibrated
// qubits: under independent local noise each rate approximates the qubit's
// effective flip probability, while a single rate near or above 1/2 flags a
// bad qubit.
func MarginalFlipRates(d *dist.Dist, correct []bitstr.Bits) []float64 {
	n := d.NumBits()
	rates := make([]float64, n)
	var total float64
	d.Range(func(x bitstr.Bits, p float64) {
		// Attribute the flip pattern relative to the nearest correct outcome.
		best := correct[0]
		bestD := bitstr.Distance(x, best)
		for _, c := range correct[1:] {
			if k := bitstr.Distance(x, c); k < bestD {
				best, bestD = c, k
			}
		}
		diff := x ^ best
		for q := 0; q < n; q++ {
			if diff>>uint(q)&1 == 1 {
				rates[q] += p
			}
		}
		total += p
	})
	if total > 0 {
		for q := range rates {
			rates[q] /= total
		}
	}
	return rates
}
