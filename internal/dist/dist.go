package dist

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/bitstr"
)

// MaxDenseBits caps the width of dense representations (Vector, Uniform):
// 2^28 float64 = 2 GiB. Sparse Dist values go up to bitstr.MaxBits.
const MaxDenseBits = 28

// Entry is one outcome of a sparse distribution with its probability mass.
type Entry struct {
	X bitstr.Bits
	P float64
}

// CompareByProb is the canonical rank order — descending probability, ties
// broken by ascending outcome. TopK, the Index, and the core's TopM
// truncation all sort by it, so the definition lives in exactly one place.
func CompareByProb(a, b Entry) int {
	if a.P != b.P {
		if a.P > b.P {
			return -1
		}
		return 1
	}
	if a.X != b.X {
		if a.X < b.X {
			return -1
		}
		return 1
	}
	return 0
}

// Dist is a sparse probability distribution over n-bit outcomes: its
// support in ascending outcome order, each outcome with its mass, plus the
// total mass. Every reader walks that one slice, so iteration (Range,
// Outcomes, String) is in ascending outcome order and a lookup is a binary
// search. A Dist is built whole — from sorted entries (FromEntries, Reset),
// by a Builder, or by the constructors below — and afterwards only
// Normalize and Reset change it.
type Dist struct {
	n     int
	es    []Entry
	total float64
}

// NumBits returns the outcome width in bits.
func (d *Dist) NumBits() int { return d.n }

// Len returns the support size (number of stored outcomes).
func (d *Dist) Len() int { return len(d.es) }

// Total returns the stored probability mass.
func (d *Dist) Total() float64 { return d.total }

// Entries returns the support in ascending outcome order with its masses.
// The slice is the distribution's own storage: callers must not modify it.
func (d *Dist) Entries() []Entry { return d.es }

// Prob returns the mass on outcome x (zero if absent).
func (d *Dist) Prob(x bitstr.Bits) float64 {
	i, ok := slices.BinarySearchFunc(d.es, x, func(e Entry, x bitstr.Bits) int { return cmp.Compare(e.X, x) })
	if !ok {
		return 0
	}
	return d.es[i].P
}

// Reset makes d the distribution of es over n-bit outcomes, taking
// ownership of the slice, and returns d for chaining. The entries must hold
// distinct outcomes within n bits in ascending order, and total their
// summed mass; Reset checks neither and adds nothing, so the caller fixes
// the order its total is summed in.
func (d *Dist) Reset(n int, es []Entry, total float64) *Dist {
	d.n, d.es, d.total = n, es, total
	return d
}

// Normalize scales the distribution to unit mass in place and returns it for
// chaining. It panics on non-positive total mass.
func (d *Dist) Normalize() *Dist {
	if d.total <= 0 {
		panic(fmt.Sprintf("dist: cannot normalize mass %v", d.total))
	}
	inv := 1 / d.total
	for i := range d.es {
		d.es[i].P *= inv
	}
	d.total = 1
	return d
}

// Outcomes returns the support in ascending order. The slice is the caller's
// to keep.
func (d *Dist) Outcomes() []bitstr.Bits {
	xs := make([]bitstr.Bits, len(d.es))
	for i, e := range d.es {
		xs[i] = e.X
	}
	return xs
}

// Range calls fn for every stored outcome in ascending order.
func (d *Dist) Range(fn func(x bitstr.Bits, p float64)) {
	for _, e := range d.es {
		fn(e.X, e.P)
	}
}

// TopK returns min(k, Len) entries ordered by descending probability, ties
// broken by ascending outcome, so the ranking is deterministic.
func (d *Dist) TopK(k int) []Entry {
	es := slices.Clone(d.es)
	slices.SortStableFunc(es, CompareByProb)
	return es[:max(0, min(k, len(es)))]
}

// Entropy returns the Shannon entropy of the distribution in bits. The
// distribution should be normalized; zero-mass outcomes contribute nothing.
func (d *Dist) Entropy() float64 {
	var h float64
	for _, e := range d.es {
		if e.P > 0 {
			h -= e.P * math.Log2(e.P)
		}
	}
	return h
}

// MostProbable returns the highest-probability outcome, ties broken toward
// the smaller outcome. It panics on an empty distribution.
func (d *Dist) MostProbable() bitstr.Bits {
	if len(d.es) == 0 {
		panic("dist: MostProbable of empty distribution")
	}
	var best bitstr.Bits
	bestP := -1.0
	for _, e := range d.es {
		if e.P > bestP {
			best, bestP = e.X, e.P
		}
	}
	return best
}

// Clone deep-copies the distribution.
func (d *Dist) Clone() *Dist {
	return &Dist{n: d.n, es: slices.Clone(d.es), total: d.total}
}

// Marginal sums the distribution over all but the low `keep` bits, the
// operation that drops ancilla qubits from a measured histogram.
func (d *Dist) Marginal(keep int) *Dist {
	if keep < 1 || keep > d.n {
		panic(fmt.Sprintf("dist: marginal over %d of %d bits", keep, d.n))
	}
	b := NewBuilder(keep)
	mask := bitstr.AllOnes(keep)
	// Ascending-order iteration keeps the fold over colliding outcomes, and
	// the total, bit-for-bit reproducible.
	for _, e := range d.es {
		b.Add(e.X&mask, e.P)
	}
	return b.Dist()
}

// Dense expands the distribution into a Vector over all 2^n outcomes.
func (d *Dist) Dense() *Vector {
	v := NewVector(d.n)
	for _, e := range d.es {
		v.p[e.X] = e.P
	}
	return v
}

// Sample draws `shots` outcomes from the distribution (which need not be
// normalized) and returns their counts. Identical rng state gives identical
// counts: draws walk the support in ascending order via a cumulative table.
func (d *Dist) Sample(rng *rand.Rand, shots int) *Counts {
	if shots < 0 {
		panic(fmt.Sprintf("dist: negative shots %d", shots))
	}
	if d.total <= 0 {
		panic(fmt.Sprintf("dist: cannot sample mass %v", d.total))
	}
	// Zero-mass outcomes stay in the support but can never be drawn, so
	// they are excluded from the cumulative table outright — this also
	// keeps the u == acc fallback below from landing on one.
	var keys []bitstr.Bits
	var cum []float64
	var acc float64
	for _, e := range d.es {
		if e.P > 0 {
			acc += e.P
			keys = append(keys, e.X)
			cum = append(cum, acc)
		}
	}
	c := NewCounts(d.n)
	for s := 0; s < shots; s++ {
		u := rng.Float64() * acc
		// Strict inequality so a draw landing exactly on a cumulative
		// boundary cannot select a zero-width interval.
		i := sort.Search(len(cum), func(j int) bool { return cum[j] > u })
		if i == len(keys) { // u rounded up to acc
			i--
		}
		c.AddN(keys[i], 1)
	}
	return c
}

// String renders the distribution in ascending outcome order, e.g.
// dist{011: 0.2500, 111: 0.7500}.
func (d *Dist) String() string {
	var sb strings.Builder
	sb.WriteString("dist{")
	for i, e := range d.es {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %.4g", bitstr.Format(e.X, d.n), e.P)
	}
	sb.WriteString("}")
	return sb.String()
}

// Builder accumulates a distribution one outcome at a time, in any order —
// the form for callers whose outcomes arrive unsorted or repeat (bit
// remaps, marginals, merges). It keeps a map and a running total, and
// radix-sorts once, in Dist. Callers that hold their entries in ascending
// order already build the Dist directly instead (FromEntries, Reset).
type Builder struct {
	n     int
	p     map[bitstr.Bits]float64
	total float64
}

// NewBuilder returns an empty builder over n-bit outcomes.
func NewBuilder(n int) *Builder {
	if n < 1 || n > bitstr.MaxBits {
		panic(fmt.Sprintf("dist: width %d out of range [1,%d]", n, bitstr.MaxBits))
	}
	return &Builder{n: n, p: make(map[bitstr.Bits]float64)}
}

// Len returns the number of distinct outcomes set or added so far.
func (b *Builder) Len() int { return len(b.p) }

func (b *Builder) check(x bitstr.Bits) {
	if x&^bitstr.AllOnes(b.n) != 0 {
		panic(fmt.Sprintf("dist: outcome %b exceeds %d bits", x, b.n))
	}
}

// Set stores mass p on outcome x, replacing any previous value. Outcomes set
// to zero stay in the support: HAMMER distinguishes "observed with vanishing
// likelihood" from "never observed".
func (b *Builder) Set(x bitstr.Bits, p float64) {
	b.check(x)
	old := b.p[x]
	b.p[x] = p
	b.total += p - old
}

// Add accumulates mass p onto outcome x.
func (b *Builder) Add(x bitstr.Bits, p float64) {
	b.check(x)
	b.p[x] += p
	b.total += p
}

// Dist returns the accumulated distribution, not normalized: its total is
// the running total of the Set and Add calls, in call order.
func (b *Builder) Dist() *Dist {
	xs := make([]uint64, 0, len(b.p))
	ps := make([]float64, 0, len(b.p))
	for x, p := range b.p {
		xs, ps = append(xs, x), append(ps, p)
	}
	es := make([]Entry, len(xs))
	for r, i := range radixOrder(xs, make([]int32, len(xs)), make([]int32, len(xs))) {
		es[r] = Entry{X: xs[i], P: ps[i]}
	}
	return &Dist{n: b.n, es: es, total: b.total}
}

// Uniform returns the uniform distribution over all 2^n outcomes.
func Uniform(n int) *Dist {
	if n < 1 || n > MaxDenseBits {
		panic(fmt.Sprintf("dist: uniform width %d out of range [1,%d]", n, MaxDenseBits))
	}
	size := 1 << uint(n)
	p := 1 / float64(size)
	es := make([]Entry, size)
	for x := range es {
		es[x] = Entry{X: bitstr.Bits(x), P: p}
	}
	return &Dist{n: n, es: es, total: 1}
}

// Synthetic builds the workload histogram of the paper's §6.6 evaluation: a
// Hamming-clustered core (one random key, then its single-bit flips) plus a
// uniform tail, normalized, with exactly support distinct n-bit outcomes
// (all 2^n when support exceeds that). The same seed always gives the same
// Dist, bit for bit: the committed BENCH_*.json reports, the cost-model
// calibration, and the benchmarks that feed them all describe this one
// workload.
func Synthetic(n, support int, seed int64) *Dist {
	support = min(support, 1<<uint(min(n, 62)))
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	key := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(n)
	b.Set(key, 0.05)
	for i := 0; i < n && b.Len() < support; i++ {
		b.Set(bitstr.Flip(key, i), 0.01+0.01*rng.Float64())
	}
	for b.Len() < support {
		b.Set(bitstr.Bits(rng.Int63())&bitstr.AllOnes(n), 1e-4*(1+rng.Float64()))
	}
	return b.Dist().Normalize()
}

// TVD returns the total variation distance between two sparse distributions
// of equal width: half the L1 distance over the union of their supports.
func TVD(a, b *Dist) float64 {
	if a.n != b.n {
		panic(fmt.Sprintf("dist: TVD width mismatch %d vs %d", a.n, b.n))
	}
	// Two merge walks add the terms in a fixed order — a's outcomes
	// ascending, then the outcomes only b holds, ascending — so the sum is
	// bit-for-bit reproducible.
	var s float64
	j := 0
	for _, e := range a.es {
		for j < len(b.es) && b.es[j].X < e.X {
			j++
		}
		q := 0.0
		if j < len(b.es) && b.es[j].X == e.X {
			q = b.es[j].P
		}
		s += math.Abs(e.P - q)
	}
	i := 0
	for _, e := range b.es {
		for i < len(a.es) && a.es[i].X < e.X {
			i++
		}
		if i == len(a.es) || a.es[i].X != e.X {
			s += math.Abs(e.P)
		}
	}
	return s / 2
}

// Vector is a dense probability array over all 2^n outcomes; index x holds
// the probability of outcome x.
type Vector struct {
	n int
	p []float64
}

// NewVector returns an all-zero dense distribution over n-bit outcomes.
func NewVector(n int) *Vector {
	if n < 1 || n > MaxDenseBits {
		panic(fmt.Sprintf("dist: vector width %d out of range [1,%d]", n, MaxDenseBits))
	}
	return &Vector{n: n, p: make([]float64, uint64(1)<<uint(n))}
}

// NumBits returns the outcome width in bits.
func (v *Vector) NumBits() int { return v.n }

// Len returns the number of outcomes, 2^n.
func (v *Vector) Len() int { return len(v.p) }

// At returns the probability of outcome x.
func (v *Vector) At(x bitstr.Bits) float64 { return v.p[x] }

// Set stores probability p on outcome x.
func (v *Vector) Set(x bitstr.Bits, p float64) { v.p[x] = p }

// Raw exposes the underlying probability array; mutations are visible to the
// Vector. Index i is the probability of outcome i.
func (v *Vector) Raw() []float64 { return v.p }

// Total returns the summed mass.
func (v *Vector) Total() float64 {
	var t float64
	for _, p := range v.p {
		t += p
	}
	return t
}

// Normalize scales to unit mass in place and returns the vector for
// chaining. It panics on non-positive total mass.
func (v *Vector) Normalize() *Vector {
	t := v.Total()
	if t <= 0 {
		panic(fmt.Sprintf("dist: cannot normalize vector mass %v", t))
	}
	inv := 1 / t
	for i := range v.p {
		v.p[i] *= inv
	}
	return v
}

// Sparse extracts the entries with mass strictly above the threshold into a
// sparse Dist. A zero threshold keeps exactly the positive-mass outcomes.
func (v *Vector) Sparse(threshold float64) *Dist {
	d := &Dist{n: v.n}
	for x, p := range v.p {
		if p > threshold {
			d.es = append(d.es, Entry{X: bitstr.Bits(x), P: p})
			d.total += p
		}
	}
	return d
}

// TVDVector returns the total variation distance between two dense
// distributions of equal width.
func TVDVector(a, b *Vector) float64 {
	if a.n != b.n {
		panic(fmt.Sprintf("dist: TVD width mismatch %d vs %d", a.n, b.n))
	}
	var s float64
	for i, pa := range a.p {
		diff := pa - b.p[i]
		if diff < 0 {
			diff = -diff
		}
		s += diff
	}
	return s / 2
}

// MaxShots bounds the total shot count of an accumulated histogram, and
// with it every count in it: 2^53, the largest total at which float64
// masses (a Counts' conversion to a Dist, the incremental engine's count
// space) stay exact integers. The write-ahead shot log (internal/wal)
// replays a session up to it, and the streaming ingest paths refuse a batch
// that would exceed it before any shot lands, so an acknowledged ingest
// always replays.
const MaxShots = 1 << 53

// Counts is a sparse integer shot-count histogram, the raw form finite-shot
// measurement produces.
type Counts struct {
	n     int
	c     map[bitstr.Bits]int
	total int
}

// NewCounts returns an empty count histogram over n-bit outcomes.
func NewCounts(n int) *Counts {
	if n < 1 || n > bitstr.MaxBits {
		panic(fmt.Sprintf("dist: counts width %d out of range [1,%d]", n, bitstr.MaxBits))
	}
	return &Counts{n: n, c: make(map[bitstr.Bits]int)}
}

// NumBits returns the outcome width in bits.
func (c *Counts) NumBits() int { return c.n }

// Total returns the total number of recorded shots.
func (c *Counts) Total() int { return c.total }

// Len returns the number of distinct observed outcomes.
func (c *Counts) Len() int { return len(c.c) }

// Get returns the count of outcome x (zero if never observed).
func (c *Counts) Get(x bitstr.Bits) int { return c.c[x] }

// Add records one shot of outcome x.
func (c *Counts) Add(x bitstr.Bits) { c.AddN(x, 1) }

// AddN records k shots of outcome x.
func (c *Counts) AddN(x bitstr.Bits, k int) {
	if x&^bitstr.AllOnes(c.n) != 0 {
		panic(fmt.Sprintf("dist: outcome %b exceeds %d bits", x, c.n))
	}
	if k < 0 {
		panic(fmt.Sprintf("dist: negative count %d", k))
	}
	c.c[x] += k
	c.total += k
}

// Range calls fn for every observed outcome in ascending order.
func (c *Counts) Range(fn func(x bitstr.Bits, k int)) {
	for _, x := range slices.Sorted(maps.Keys(c.c)) {
		fn(x, c.c[x])
	}
}

// Clone deep-copies the count histogram.
func (c *Counts) Clone() *Counts {
	return &Counts{n: c.n, c: maps.Clone(c.c), total: c.total}
}

// Dist converts the counts to a normalized probability distribution.
func (c *Counts) Dist() *Dist {
	if c.total <= 0 {
		panic("dist: cannot convert empty counts to a distribution")
	}
	d := &Dist{n: c.n, es: make([]Entry, 0, len(c.c)), total: 1}
	inv := 1 / float64(c.total)
	c.Range(func(x bitstr.Bits, k int) {
		d.es = append(d.es, Entry{X: x, P: float64(k) * inv})
	})
	return d
}
