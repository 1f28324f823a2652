package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// Dist is a sparse probability distribution over n-bit outcomes. The zero
// value is not usable; construct with New. Iteration (Range, Outcomes,
// String) is always in ascending outcome order, so results never depend on
// Go's randomized map order.
type Dist struct {
	n    int
	p    map[bitstr.Bits]float64
	keys []bitstr.Bits // sorted cache of the support; rebuilt when stale
	// The first read after a change to the support rebuilds keys. Readers
	// may run concurrently, so the rebuild happens under keysMu, and stale
	// is atomic so that a reader finding it clear sees the finished keys.
	stale  atomic.Bool
	keysMu sync.Mutex
	total  float64
}

// New returns an empty distribution over n-bit outcomes.
func New(n int) *Dist {
	if n < 1 || n > bitstr.MaxBits {
		panic(fmt.Sprintf("dist: width %d out of range [1,%d]", n, bitstr.MaxBits))
	}
	d := &Dist{n: n, p: make(map[bitstr.Bits]float64)}
	d.stale.Store(true)
	return d
}

// Reset empties the distribution in place, keeping the allocated map and key
// cache so the next fill of a similar support is allocation-free. It returns
// the distribution for chaining.
func (d *Dist) Reset() *Dist {
	clear(d.p)
	d.keys = d.keys[:0]
	d.stale.Store(true)
	d.total = 0
	return d
}

// NumBits returns the outcome width in bits.
func (d *Dist) NumBits() int { return d.n }

// Len returns the support size (number of stored outcomes).
func (d *Dist) Len() int { return len(d.p) }

// Total returns the stored probability mass.
func (d *Dist) Total() float64 { return d.total }

// Prob returns the mass on outcome x (zero if absent).
func (d *Dist) Prob(x bitstr.Bits) float64 { return d.p[x] }

func (d *Dist) check(x bitstr.Bits) {
	if x&^bitstr.AllOnes(d.n) != 0 {
		panic(fmt.Sprintf("dist: outcome %b exceeds %d bits", x, d.n))
	}
}

// Set stores mass p on outcome x, replacing any previous value. Outcomes set
// to zero stay in the support: HAMMER distinguishes "observed with vanishing
// likelihood" from "never observed".
func (d *Dist) Set(x bitstr.Bits, p float64) {
	d.check(x)
	old, ok := d.p[x]
	d.p[x] = p
	d.total += p - old
	if !ok {
		d.stale.Store(true)
	}
}

// Add accumulates mass p onto outcome x.
func (d *Dist) Add(x bitstr.Bits, p float64) {
	d.check(x)
	if _, ok := d.p[x]; !ok {
		d.stale.Store(true)
	}
	d.p[x] += p
	d.total += p
}

// Normalize scales the distribution to unit mass in place and returns it for
// chaining. It panics on non-positive total mass.
func (d *Dist) Normalize() *Dist {
	if d.total <= 0 {
		panic(fmt.Sprintf("dist: cannot normalize mass %v", d.total))
	}
	inv := 1 / d.total
	for x, p := range d.p {
		d.p[x] = p * inv
	}
	d.total = 1
	return d
}

func (d *Dist) sortedKeys() []bitstr.Bits {
	if d.stale.Load() {
		d.keysMu.Lock()
		if d.stale.Load() {
			d.keys = d.keys[:0]
			for x := range d.p {
				d.keys = append(d.keys, x)
			}
			// The generic slices sort keeps this hot rebuild free of the
			// reflection allocations sort.Slice would add.
			slices.Sort(d.keys)
			d.stale.Store(false)
		}
		d.keysMu.Unlock()
	}
	return d.keys
}

// Outcomes returns the support in ascending order. The slice is the caller's
// to keep.
func (d *Dist) Outcomes() []bitstr.Bits {
	return append([]bitstr.Bits(nil), d.sortedKeys()...)
}

// Range calls fn for every stored outcome in ascending order.
func (d *Dist) Range(fn func(x bitstr.Bits, p float64)) {
	for _, x := range d.sortedKeys() {
		fn(x, d.p[x])
	}
}

// TopK returns min(k, Len) entries ordered by descending probability, ties
// broken by ascending outcome, so the ranking is deterministic.
func (d *Dist) TopK(k int) []Entry {
	es := make([]Entry, 0, len(d.p))
	for _, x := range d.sortedKeys() {
		es = append(es, Entry{X: x, P: d.p[x]})
	}
	slices.SortStableFunc(es, CompareByProb)
	if k < 0 {
		k = 0
	}
	if k < len(es) {
		es = es[:k]
	}
	return es
}

// Entropy returns the Shannon entropy of the distribution in bits. The
// distribution should be normalized; zero-mass outcomes contribute nothing.
func (d *Dist) Entropy() float64 {
	var h float64
	for _, x := range d.sortedKeys() {
		if p := d.p[x]; p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// MostProbable returns the highest-probability outcome, ties broken toward
// the smaller outcome. It panics on an empty distribution.
func (d *Dist) MostProbable() bitstr.Bits {
	if len(d.p) == 0 {
		panic("dist: MostProbable of empty distribution")
	}
	var best bitstr.Bits
	bestP := -1.0
	for _, x := range d.sortedKeys() {
		if p := d.p[x]; p > bestP {
			best, bestP = x, p
		}
	}
	return best
}

// Clone deep-copies the distribution.
func (d *Dist) Clone() *Dist {
	c := New(d.n)
	for x, p := range d.p {
		c.p[x] = p
	}
	c.total = d.total
	return c
}

// Marginal sums the distribution over all but the low `keep` bits, the
// operation that drops ancilla qubits from a measured histogram.
func (d *Dist) Marginal(keep int) *Dist {
	if keep < 1 || keep > d.n {
		panic(fmt.Sprintf("dist: marginal over %d of %d bits", keep, d.n))
	}
	out := New(keep)
	mask := bitstr.AllOnes(keep)
	// Ascending-order iteration keeps the fold over colliding outcomes
	// bit-for-bit reproducible (map order is randomized per process).
	d.Range(func(x bitstr.Bits, p float64) {
		out.Add(x&mask, p)
	})
	return out
}

// Dense expands the distribution into a Vector over all 2^n outcomes.
func (d *Dist) Dense() *Vector {
	v := NewVector(d.n)
	for x, p := range d.p {
		v.p[x] = p
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
	for _, x := range d.sortedKeys() {
		if p := d.p[x]; p > 0 {
			acc += p
			keys = append(keys, x)
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
	for i, x := range d.sortedKeys() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %.4g", bitstr.Format(x, d.n), d.p[x])
	}
	sb.WriteString("}")
	return sb.String()
}

// Uniform returns the uniform distribution over all 2^n outcomes.
func Uniform(n int) *Dist {
	if n < 1 || n > MaxDenseBits {
		panic(fmt.Sprintf("dist: uniform width %d out of range [1,%d]", n, MaxDenseBits))
	}
	d := New(n)
	size := uint64(1) << uint(n)
	p := 1 / float64(size)
	for x := uint64(0); x < size; x++ {
		d.p[x] = p
	}
	d.total = 1
	return d
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
	d := New(n)
	key := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(n)
	d.Set(key, 0.05)
	for i := 0; i < n && d.Len() < support; i++ {
		d.Set(bitstr.Flip(key, i), 0.01+0.01*rng.Float64())
	}
	for d.Len() < support {
		d.Set(bitstr.Bits(rng.Int63())&bitstr.AllOnes(n), 1e-4*(1+rng.Float64()))
	}
	return d.Normalize()
}

// TVD returns the total variation distance between two sparse distributions
// of equal width: half the L1 distance over the union of their supports.
func TVD(a, b *Dist) float64 {
	if a.n != b.n {
		panic(fmt.Sprintf("dist: TVD width mismatch %d vs %d", a.n, b.n))
	}
	// Ascending-order iteration keeps the sum bit-for-bit reproducible
	// (map order is randomized per process).
	var s float64
	for _, x := range a.sortedKeys() {
		diff := a.p[x] - b.p[x]
		if diff < 0 {
			diff = -diff
		}
		s += diff
	}
	for _, x := range b.sortedKeys() {
		if _, ok := a.p[x]; !ok {
			pb := b.p[x]
			if pb < 0 {
				pb = -pb
			}
			s += pb
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
	d := New(v.n)
	for x, p := range v.p {
		if p > threshold {
			d.p[bitstr.Bits(x)] = p
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
	keys := make([]bitstr.Bits, 0, len(c.c))
	for x := range c.c {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, x := range keys {
		fn(x, c.c[x])
	}
}

// Clone deep-copies the count histogram.
func (c *Counts) Clone() *Counts {
	out := NewCounts(c.n)
	for x, k := range c.c {
		out.c[x] = k
	}
	out.total = c.total
	return out
}

// Dist converts the counts to a normalized probability distribution.
func (c *Counts) Dist() *Dist {
	if c.total <= 0 {
		panic("dist: cannot convert empty counts to a distribution")
	}
	d := New(c.n)
	inv := 1 / float64(c.total)
	for x, k := range c.c {
		d.p[x] = float64(k) * inv
	}
	d.total = 1
	return d
}
