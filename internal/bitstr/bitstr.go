// Package bitstr provides compact n-bit bitstring values and Hamming-space
// utilities used throughout the HAMMER reproduction.
//
// Outcomes of an n-qubit measurement are represented as the low n bits of a
// uint64, so n must be at most 64. Bit i of the word corresponds to qubit i.
// The textual form follows the paper's convention: the most significant qubit
// is printed first, so qubit 0 is the rightmost character ("110" has qubit 0
// = 0, qubit 1 = 1, qubit 2 = 1).
package bitstr

import (
	"fmt"
	"math/bits"
	"slices"
)

// MaxBits is the largest supported bitstring width.
const MaxBits = 64

// Bits is an n-bit outcome stored in the low bits of a uint64.
type Bits = uint64

// Distance returns the Hamming distance between x and y.
func Distance(x, y Bits) int {
	return bits.OnesCount64(x ^ y)
}

// Weight returns the Hamming weight (number of set bits) of x.
func Weight(x Bits) int {
	return bits.OnesCount64(x)
}

// MinDistance returns the smallest Hamming distance from x to any element of
// targets. It panics if targets is empty, because "distance to nothing" has
// no meaningful value and silently returning 0 would corrupt spectra.
func MinDistance(x Bits, targets []Bits) int {
	if len(targets) == 0 {
		panic("bitstr: MinDistance with empty target set")
	}
	min := MaxBits + 1
	for _, t := range targets {
		if d := Distance(x, t); d < min {
			min = d
			if min == 0 {
				break
			}
		}
	}
	return min
}

// Format renders x as an n-character binary string, most significant qubit
// first (the paper's printing convention).
func Format(x Bits, n int) string {
	var buf [MaxBits]byte
	return string(AppendFormat(buf[:0], x, n))
}

// AppendFormat appends Format(x, n) to dst, so hot paths can render
// outcomes into a reused buffer without a string allocation each.
func AppendFormat(dst []byte, x Bits, n int) []byte {
	if n < 0 || n > MaxBits {
		panic(fmt.Sprintf("bitstr: Format width %d out of range", n))
	}
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	for i := n - 1; i >= 0; i-- {
		out[i] = '0' + byte(x&1)
		x >>= 1
	}
	return dst[:len(dst)+n]
}

// Parse converts a binary string (most significant qubit first) to a Bits
// value. It accepts only '0' and '1' characters.
func Parse(s string) (Bits, error) {
	if len(s) > MaxBits {
		return 0, fmt.Errorf("bitstr: string %q longer than %d bits", s, MaxBits)
	}
	var x Bits
	for _, c := range s {
		x <<= 1
		switch c {
		case '1':
			x |= 1
		case '0':
		default:
			return 0, fmt.Errorf("bitstr: invalid character %q in %q", c, s)
		}
	}
	return x, nil
}

// MustParse is Parse but panics on malformed input. It is intended for
// literals in tests and examples.
func MustParse(s string) Bits {
	x, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return x
}

// Bit reports the value of bit i of x.
func Bit(x Bits, i int) int {
	return int(x >> uint(i) & 1)
}

// Flip returns x with bit i toggled.
func Flip(x Bits, i int) Bits {
	return x ^ (1 << uint(i))
}

// AllOnes returns the n-bit string of all ones.
func AllOnes(n int) Bits {
	if n <= 0 {
		return 0
	}
	if n >= MaxBits {
		return ^Bits(0)
	}
	return (Bits(1) << uint(n)) - 1
}

// Neighbors calls fn for every string exactly distance d from x within an
// n-bit space, in increasing numeric order of the XOR mask. If fn returns
// false, enumeration stops early. The number of neighbors is C(n, d), so
// callers should keep d small for large n.
func Neighbors(x Bits, n, d int, fn func(Bits) bool) {
	if d < 0 || d > n {
		return
	}
	if d == 0 {
		fn(x)
		return
	}
	// Enumerate all n-bit masks of weight d using Gosper's hack.
	mask := AllOnes(d)
	limit := Bits(1) << uint(n)
	for mask < limit {
		if !fn(x ^ mask) {
			return
		}
		// Gosper's hack: next integer with the same popcount.
		c := mask & -mask
		r := mask + c
		mask = (((r ^ mask) >> 2) / c) | r
	}
}

// CountAtDistance returns C(n, d): the number of n-bit strings at Hamming
// distance exactly d from any fixed string. Returns 0 for out-of-range d.
func CountAtDistance(n, d int) uint64 {
	if d < 0 || d > n {
		return 0
	}
	if d > n-d {
		d = n - d
	}
	var c uint64 = 1
	for i := 0; i < d; i++ {
		c = c * uint64(n-i) / uint64(i+1)
	}
	return c
}
