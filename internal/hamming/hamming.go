// Package hamming implements the Hamming-space analysis machinery of the
// HAMMER paper (§3): the Hamming spectrum of an output distribution, the
// Expected Hamming Distance (EHD), and the Cumulative Hamming Strength (CHS)
// vectors used by the reconstruction algorithm.
//
// Each analysis has one form, over a dist.Dist. The per-outcome
// minimum-distance scans (NewSpectrum, EHD) walk the outcomes once against
// the correct set, skipping every correct outcome whose weight difference
// |popcount(x) − popcount(c)| already rules it out. The CHS vectors (CHS,
// AverageCHS) are plain loops over the outcomes: they serve figures and
// reports, while the pruned pairwise scans of reconstruction live in
// internal/core.
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
// linear, with the weight-difference lower bound computed inline.
func NewSpectrum(d *dist.Dist, correct []bitstr.Bits) *Spectrum {
	n := d.NumBits()
	s := &Spectrum{
		NumBits: n,
		Bins:    make([]float64, n+1),
		Counts:  make([]int, n+1),
	}
	cw := correctWeights(correct)
	d.Range(func(x bitstr.Bits, p float64) {
		k := minDistanceWeighted(x, correct, cw, n)
		s.Bins[k] += p
		s.Counts[k]++
	})
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

// minDistanceWeighted returns the minimum Hamming distance from x to the
// correct set, skipping candidates whose weight already differs by at least
// the best distance found so far (the same triangle inequality the blocked
// reconstruction engine's weight window prunes with).
func minDistanceWeighted(x bitstr.Bits, correct []bitstr.Bits, cw []int, n int) int {
	wx := bitstr.Weight(x)
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

// EHD computes the Expected Hamming Distance (§3.3): the probability-weighted
// average of the minimum Hamming distance from each outcome to the correct
// set. EHD is 0 for a noise-free distribution and approaches n/2 for a
// uniform distribution.
func EHD(d *dist.Dist, correct []bitstr.Bits) float64 {
	cw := correctWeights(correct)
	n := d.NumBits()
	var e float64
	d.Range(func(x bitstr.Bits, p float64) {
		e += p * float64(minDistanceWeighted(x, correct, cw, n))
	})
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
// in Fig. 7b and the basis for HAMMER's per-distance weights: entry k holds
// the sum of Pr(x)·Pr(y) over ordered pairs (x, y) at Hamming distance
// exactly k, for k in [0, maxD].
func AverageCHS(d *dist.Dist, maxD int) []float64 {
	if maxD < 0 {
		panic(fmt.Sprintf("hamming: negative CHS radius %d", maxD))
	}
	avg := make([]float64, maxD+1)
	es := d.Entries()
	for _, x := range es {
		for _, y := range es {
			if k := bitstr.Distance(x.X, y.X); k <= maxD {
				avg[k] += x.P * y.P
			}
		}
	}
	return avg
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
