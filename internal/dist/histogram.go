package dist

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitstr"
)

// FromHistogram parses a string-keyed probability (or count) histogram — the
// wire form quantum backends and the HTTP API exchange — into a normalized
// sparse distribution, returning the outcome width alongside. All keys must
// share one length; masses must be non-negative with a positive, finite
// total that is not so small its reciprocal overflows. Error text carries
// no package prefix so facades can attach their own.
//
// It is key parsing in front of FromEntries, so mass accumulates in
// ascending outcome order: the normalization total — and therefore every
// output bit — is independent of Go's randomized map iteration, and
// identical histograms give identical distributions across processes.
func FromHistogram(histogram map[string]float64) (*Dist, int, error) {
	n := -1
	for k := range histogram {
		if n == -1 {
			n = len(k)
		} else if len(k) != n {
			return nil, 0, errMixedWidth(n, len(k))
		}
	}
	if n > bitstr.MaxBits {
		return nil, 0, errWidth(n)
	}
	es := make([]Entry, 0, len(histogram))
	for k, v := range histogram {
		x, err := bitstr.Parse(k)
		if err != nil {
			return nil, 0, err
		}
		es = append(es, Entry{X: x, P: v})
	}
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.X, b.X) })
	d, err := FromEntries(n, es)
	if err != nil {
		return nil, 0, err
	}
	return d, n, nil
}

// FromEntries builds the normalized distribution of a histogram given as
// n-bit entries in strictly ascending outcome order, the form
// Histogram.Entries decodes the wire into. Masses are raw (counts or
// probabilities): they must be non-negative with positive total, and they
// accumulate in entry order, so the result is bit-identical to
// FromHistogram of the same histogram.
func FromEntries(n int, es []Entry) (*Dist, error) {
	total, err := checkEntries(n, es)
	if err != nil {
		return nil, err
	}
	d := &Dist{
		n:     n,
		p:     make(map[bitstr.Bits]float64, len(es)),
		keys:  make([]bitstr.Bits, len(es)),
		total: 1,
	}
	// One pass does what Add then Normalize would: 0+P turns a -0 mass into
	// the +0 an accumulating Add stores, and the product is Normalize's.
	inv := 1 / total
	for i, e := range es {
		d.p[e.X] = (0 + e.P) * inv
		d.keys[i] = e.X
	}
	return d, nil
}

// checkEntries is the histogram validation FromHistogram and
// Histogram.Entries share: a width in [1, MaxBits], outcomes within it in
// strictly ascending order, non-negative masses, and a positive, finite
// total whose reciprocal is finite too. It returns the total, accumulated
// in entry order.
func checkEntries(n int, es []Entry) (float64, error) {
	if len(es) == 0 {
		return 0, fmt.Errorf("empty histogram")
	}
	if n < 1 || n > bitstr.MaxBits {
		return 0, errWidth(n)
	}
	mask := bitstr.AllOnes(n)
	var total float64
	for i, e := range es {
		if e.X&^mask != 0 {
			return 0, fmt.Errorf("outcome %b exceeds %d bits", e.X, n)
		}
		if i > 0 && e.X <= es[i-1].X {
			return 0, fmt.Errorf("outcome %s out of ascending order", bitstr.Format(e.X, n))
		}
		if e.P < 0 {
			return 0, fmt.Errorf("negative mass %v for %q", e.P, bitstr.Format(e.X, n))
		}
		total += e.P
	}
	if total <= 0 {
		return 0, fmt.Errorf("histogram has no mass")
	}
	if math.IsInf(total, 0) || math.IsNaN(total) {
		// Normalizing by it would zero every outcome, which the engines
		// cannot reconstruct from.
		return 0, fmt.Errorf("histogram mass %v is not finite", total)
	}
	if math.IsInf(1/total, 0) {
		// A total below 1/MaxFloat64 (a subnormal): normalizing by it
		// would give infinite and NaN probabilities.
		return 0, fmt.Errorf("histogram mass %v is too small to normalize", total)
	}
	return total, nil
}

func errMixedWidth(a, b int) error {
	return fmt.Errorf("mixed key lengths (%d and %d bits)", a, b)
}

func errWidth(n int) error {
	return fmt.Errorf("key length %d out of range [1,%d]", n, bitstr.MaxBits)
}

// ToHistogram formats a sparse distribution back into the string-keyed wire
// form, most significant qubit first.
func ToHistogram(d *Dist) map[string]float64 {
	out := make(map[string]float64, d.Len())
	n := d.NumBits()
	d.Range(func(x bitstr.Bits, p float64) {
		out[bitstr.Format(x, n)] = p
	})
	return out
}
