package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// EngineIncremental names the streaming engine in Result.Engine. It is
// streaming-only: not a valid Options.Engine value for the batch
// Reconstruct path, because incremental state only exists inside an
// Incremental accumulator. The stream layer resolves it through Lookup like
// every other engine name.
const EngineIncremental = "incremental"

// fullResyncEvery bounds floating-point drift: delta-patched rows are exact
// sums in exact arithmetic but accumulate one rounding error per patch, so
// every fullResyncEvery-th revalidation rebuilds all rows from scratch. The
// amortized cost is one extra full pass per 256 snapshots.
const fullResyncEvery = 256

// Incremental is reusable HAMMER engine state for streaming reconstruction:
// CHS accumulators and per-outcome neighborhood rows that survive across
// snapshots, invalidated per dirty outcome instead of recomputed from
// scratch.
//
// Two observations make snapshots cheap. First, every quantity of
// Algorithm 1 is homogeneous in the total shot count T — probabilities are
// c(x)/T and both the global CHS and the admitted neighborhood strengths
// scale by 1/T — so the state is maintained in count space and rescaled at
// snapshot time. Second, when shots land on outcome x, the row of an
// unchanged outcome y within the radius shifts by a closed-form delta: its
// own mass did not move, so its filter decisions against x depend only on
// x's old and new mass, and the row is patched in O(1) per distance instead
// of recomputed. Only the changed outcomes themselves — whose filter
// decisions against every neighbor may flip — rebuild their rows. A snapshot
// after a batch touching m unique outcomes therefore costs O(m · ball) +
// O(N · radius), instead of the O(N · ball) full pairwise pass of the batch
// engines.
//
// Every outcome gets a slot, in order of first sight, and all per-outcome
// state is a slot-indexed slice: the mass, the mass at the last row sync,
// and a dirty flag. The outcome→slot map is consulted only by Add. Ball
// walks run over per-weight arrays of packed outcomes and their slots —
// bucket w holds the outcomes of Hamming weight w in insertion order — so a
// walk from x scans the 2·radius+1 buckets around popcount(x) with one
// popcount per candidate and no lookup.
//
// The rows live in one []float64 matrix, span floats per slot: the
// unfiltered row all (index d is the neighborhood mass at distance exactly
// d, summing to CHS[d] over all outcomes) and, with the filter on, the
// admitted row adm (only neighbors of strictly lower mass, §4.4), each of
// stride radius+1 with index 0 unused. With the filter off adm aliases all.
// The matrix, the synced masses and the slots in ascending outcome order
// (the order Snapshot scores and emits in) cover only the slots seen at the
// last revalidation: new slots get theirs at the next Snapshot, so a
// session that is ingested into but never snapshotted holds no rows.
//
// Revalidation makes one walk per changed outcome. The walk rebuilds the
// outcome's own row from its current ball and delta-patches the rows of its
// clean (unchanged) neighbors; it never writes the row of another changed
// outcome, whose own walk rebuilds it from the same current masses. That
// cross-writing makes the partial pass serial; the periodic full resync
// writes only own rows and runs in parallel, each walk on its own stack.
//
// A walk visits every outcome in its weight window, but on a stream's usual
// traffic only about 41% of them lie within the default radius, so a branch
// on the distance would be a coin flip on every visit. The walk therefore
// takes its candidates in two passes: a branch-free compaction into a
// buffer on its stack, then a dense pass over the hits alone (see walk).
//
// Incremental is not safe for concurrent use; callers serialize Add and
// Snapshot.
type Incremental struct {
	n       int
	maxD    int
	scheme  WeightScheme
	filter  bool
	workers int

	slot    map[bitstr.Bits]int32 // outcome -> slot; Add only
	outs    []bitstr.Bits         // slot -> outcome
	mass    []float64             // slot -> accumulated mass
	dirty   []bool                // slot -> mass moved since the last row sync
	changed []int32               // the dirty slots, in first-touch order
	total   float64

	words [][]uint64 // by popcount 0..n: packed outcomes, insertion order
	slots [][]int32  // by popcount: the slot of words[w][i]

	span, admOff int       // floats per slot in rows; offset of the adm row
	rows         []float64 // slot s's rows at [s*span, (s+1)*span)
	synced       []float64 // slot -> mass at its last row sync
	sorted       []int32   // the synced slots in ascending outcome order

	resyncIn int     // revalidations until the next full anti-drift rebuild
	cached   *Result // last snapshot; nil when state changed since
}

// NewIncremental returns empty streaming engine state over n-bit outcomes.
// Options.TopM and Options.Engine are rejected: truncation invalidates
// per-outcome caching (the top-M membership shifts between snapshots), and
// the batch engines have no incremental state — callers that need either run
// the batch path per snapshot instead (internal/stream does this gating).
func NewIncremental(n int, opts Options) *Incremental {
	if n < 1 || n > bitstr.MaxBits {
		panic(fmt.Sprintf("core: incremental width %d out of range [1,%d]", n, bitstr.MaxBits))
	}
	if opts.TopM != 0 {
		panic(fmt.Sprintf("core: incremental state does not support TopM (%d)", opts.TopM))
	}
	if opts.Engine != "" && opts.Engine != EngineAuto && opts.Engine != EngineIncremental {
		panic(fmt.Sprintf("core: incremental state cannot run engine %q", opts.Engine))
	}
	maxD := opts.radius(n)
	inc := &Incremental{
		n:        n,
		maxD:     maxD,
		scheme:   opts.Weights,
		filter:   !opts.DisableFilter,
		workers:  opts.workers(),
		slot:     make(map[bitstr.Bits]int32),
		words:    make([][]uint64, n+1),
		slots:    make([][]int32, n+1),
		span:     maxD + 1,
		resyncIn: fullResyncEvery,
	}
	if inc.filter {
		inc.admOff = maxD + 1
		inc.span = 2 * (maxD + 1)
	}
	return inc
}

// NumBits returns the outcome width in bits.
func (inc *Incremental) NumBits() int { return inc.n }

// Support returns the number of distinct outcomes ingested so far.
func (inc *Incremental) Support() int { return len(inc.outs) }

// Total returns the accumulated shot mass.
func (inc *Incremental) Total() float64 { return inc.total }

// Radius returns the maximum admitted Hamming distance.
func (inc *Incremental) Radius() int { return inc.maxD }

// Range calls fn for every ingested outcome with its accumulated mass, in a
// deterministic order: ascending Hamming weight, insertion order within a
// weight.
func (inc *Incremental) Range(fn func(x bitstr.Bits, mass float64)) {
	for w, ws := range inc.words {
		for i, x := range ws {
			fn(x, inc.mass[inc.slots[w][i]])
		}
	}
}

// Add accumulates mass onto outcome x (one shot is mass 1). Mass must be
// non-negative; a zero-mass Add keeps the outcome in the support (HAMMER
// distinguishes "observed with vanishing likelihood" from "never
// observed"). The update is O(1): row invalidation is deferred to the next
// Snapshot so that a batch touching m unique outcomes costs m neighborhood
// repairs, not one per shot.
func (inc *Incremental) Add(x bitstr.Bits, mass float64) {
	if x&^bitstr.AllOnes(inc.n) != 0 {
		panic(fmt.Sprintf("core: outcome %b exceeds %d bits", x, inc.n))
	}
	if mass < 0 {
		panic(fmt.Sprintf("core: negative mass %v", mass))
	}
	s, ok := inc.slot[x]
	if !ok {
		if len(inc.outs) == math.MaxInt32 {
			panic("core: incremental support exceeds 2^31-1 outcomes")
		}
		s = int32(len(inc.outs))
		inc.slot[x] = s
		inc.outs = append(inc.outs, x)
		inc.mass = append(inc.mass, 0)
		inc.dirty = append(inc.dirty, false)
		w := bits.OnesCount64(x)
		inc.words[w] = append(inc.words[w], x)
		inc.slots[w] = append(inc.slots[w], s)
	}
	inc.mass[s] += mass
	inc.total += mass
	if !inc.dirty[s] {
		inc.dirty[s] = true
		inc.changed = append(inc.changed, s)
	}
	inc.cached = nil
}

// Snapshot reconstructs the distribution of the shots ingested so far,
// repairing only the engine state the changed outcomes touched. It panics
// when nothing has been ingested. Repeated snapshots with no intervening Add
// return the same Result.
func (inc *Incremental) Snapshot() *Result {
	if len(inc.outs) == 0 {
		panic("core: snapshot of empty incremental state")
	}
	if inc.cached != nil {
		return inc.cached
	}
	inc.revalidate()

	total := inc.total
	if total <= 0 {
		panic(fmt.Sprintf("core: snapshot of mass %v", total))
	}
	inv := 1 / total
	maxD, span := inc.maxD, inc.span

	// Global CHS: freshly summed from the cached rows every snapshot (cheap,
	// O(N·radius)) so the accumulator itself never drifts. chs[0] is the
	// self-pair term, Σ Pr(x) = 1 for a normalized histogram.
	chs := make([]float64, maxD+1)
	chs[0] = 1
	for _, s := range inc.sorted {
		all := inc.rows[int(s)*span:][:maxD+1]
		for d := 1; d <= maxD; d++ {
			chs[d] += all[d] * inv
		}
	}
	w := weights(chs, maxD, inc.scheme)

	// Scores in ascending outcome order: the entries become the output's
	// storage as they are, normalized in place.
	es := make([]dist.Entry, 0, len(inc.sorted))
	for _, s := range inc.sorted {
		p := inc.mass[s] * inv
		adm := inc.rows[int(s)*span+inc.admOff:][:maxD+1]
		sc := p
		for d := 1; d <= maxD; d++ {
			sc += w[d] * (adm[d] * inv)
		}
		es = append(es, dist.Entry{X: inc.outs[s], P: sc * p})
	}
	out, err := dist.FromEntries(inc.n, es)
	if err != nil {
		// Outcomes ascend within the width and the scores sum to at least
		// Σ p² ≥ 1/N, so only masses that are not finite get here.
		panic(fmt.Sprintf("core: incremental snapshot: %v", err))
	}
	inc.cached = &Result{Out: out, GlobalCHS: chs, Weights: w, Radius: maxD, Engine: EngineIncremental}
	return inc.cached
}

// revalidate repairs the rows after a batch of mass updates: one merged walk
// per changed outcome, or — on the first snapshot, when everything changed,
// and every fullResyncEvery-th call to stop rounding drift — a rebuild of
// every row.
func (inc *Incremental) revalidate() {
	if len(inc.changed) == 0 {
		return
	}
	// Room for the slots added since the last revalidation: rows and synced
	// masses start at zero, as for an outcome no row has seen yet, and the
	// slots join the ascending outcome order.
	if grow := len(inc.outs) - len(inc.synced); grow > 0 {
		inc.synced = append(inc.synced, make([]float64, grow)...)
		inc.rows = append(inc.rows, make([]float64, grow*inc.span)...)
		inc.mergeSorted(len(inc.outs) - grow)
	}
	inc.resyncIn--
	if inc.resyncIn <= 0 || len(inc.changed) == len(inc.outs) {
		parallelRange(len(inc.outs), inc.workers, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				inc.walk(int32(s), false)
			}
		})
		inc.resyncIn = fullResyncEvery
	} else {
		for _, c := range inc.changed {
			inc.walk(c, true)
		}
	}
	for _, c := range inc.changed {
		inc.dirty[c] = false
	}
	inc.changed = inc.changed[:0]
}

// mergeSorted merges the slots from first on, sorted by outcome, into the
// ascending order of the older slots.
func (inc *Incremental) mergeSorted(first int) {
	byOutcome := func(a, b int32) int { return cmp.Compare(inc.outs[a], inc.outs[b]) }
	fresh := make([]int32, 0, len(inc.outs)-first)
	for s := first; s < len(inc.outs); s++ {
		fresh = append(fresh, int32(s))
	}
	slices.SortFunc(fresh, byOutcome)
	merged := make([]int32, 0, len(inc.outs))
	old := inc.sorted
	for len(old) > 0 && len(fresh) > 0 {
		if byOutcome(old[0], fresh[0]) < 0 {
			merged, old = append(merged, old[0]), old[1:]
		} else {
			merged, fresh = append(merged, fresh[0]), fresh[1:]
		}
	}
	inc.sorted = append(append(merged, old...), fresh...)
}

// walkBuf is how many candidates a walk's compaction pass takes at a time,
// and so how many hits its buffer holds. A hit is packed as j<<distBits | d:
// the candidate's index j in its stretch and its distance d, at most 64.
// compact's assembly body (kernel_amd64.s) writes both constants out as
// numbers, and relies on walkBuf being a multiple of eight.
const (
	walkBuf  = 512
	distBits = 7
)

// ownRows are a walk's own rows, accumulated on its stack, where its stores
// into neighbor rows cannot alias them. They are indexed by distance and
// 1<<distBits long, so a distance masked out of a hit needs no bounds check.
type ownRows struct{ all, adm [1 << distBits]float64 }

// walk rebuilds slot c's rows from the outcomes within the radius of its
// outcome and records its mass as synced. With patch set it also
// delta-patches the rows of every clean neighbor for c's mass moving from
// its synced value to its current one. A clean neighbor's own mass did not
// move, so its filter decision against c depends only on c's old and new
// mass: remove the old contribution, add the new one. Dirty neighbors are
// left alone — their own walks rebuild them from the current masses — so
// without patch a walk writes only c's rows and walks of distinct slots may
// run concurrently.
//
// The walk makes two passes over each stretch of up to walkBuf candidates
// in its weight window. On a stream's usual traffic only about 41% of those
// candidates lie within the radius, so a branch on the distance would be
// mispredicted on a large share of visits. compact has no such branch: it
// writes every candidate into the buffer and advances the write index only
// for a hit. credit then runs over the hits alone, in candidate order, so
// every row receives the same additions in the same order as a single pass
// would make them, and the snapshots are bit for bit the same.
func (inc *Incremental) walk(c int32, patch bool) {
	maxD, x := inc.maxD, inc.outs[c]
	var own ownRows
	var hits [walkBuf]uint32

	wx := bits.OnesCount64(x)
	lo, hi := max(wx-maxD, 0), min(wx+maxD, inc.n)
	for w := lo; w <= hi; w++ {
		ws := inc.words[w]
		ss := inc.slots[w][:len(ws)]
		for len(ws) > 0 {
			k := min(len(ws), walkBuf)
			var n int
			if useAVX512 {
				n = compactAVX512(x, ws[:k], uint(maxD), hits[:])
			} else {
				n = compact(x, ws[:k], uint(maxD), hits[:])
			}
			inc.credit(c, ss[:k], hits[:n], patch, &own)
			ws, ss = ws[k:], ss[k:]
		}
	}
	row := inc.rows[int(c)*inc.span:][:inc.span]
	copy(row, own.all[:maxD+1])
	if inc.filter {
		copy(row[inc.admOff:], own.adm[:maxD+1])
	}
	inc.synced[c] = inc.mass[c]
}

// compact writes, in order, every word's index j and distance d from x into
// hits as j<<distBits | d, and returns how many of them lie within distance
// 1..maxD: the write index advances by the comparison's 0 or 1, so each hit
// overwrites the miss before it and no branch depends on the distance. Words
// may not outnumber walkBuf, so the masked index never wraps.
//
// On amd64 hosts with AVX-512 VPOPCNTDQ, walk runs compactAVX512 in its
// place, which returns the same count and the same hits eight words at a
// time; this loop is the body everywhere else and the reference the
// assembly is tested against. It is kept out of line so that its few live
// values stay in registers: under the default GOAMD64 baseline each
// popcount carries a has-POPCNT probe with a call fallback, and inlined into
// walk the loop would spill the values live across that call on every
// candidate.
//
//go:noinline
func compact(x uint64, words []uint64, maxD uint, hits []uint32) int {
	hits = hits[:walkBuf]
	n := 0
	for j, y := range words {
		d := bits.OnesCount64(x ^ y)
		hits[n&(walkBuf-1)] = uint32(j)<<distBits | uint32(d)
		if uint(d-1) < maxD {
			n++
		}
	}
	return n
}

// compactAVX512 is compact's AVX-512 body. Its vector stores write eight
// records at hits[n], n <= j, for words j to j+7, which stays inside
// hits[:walkBuf] while words fit in it: the reslices panic on a shorter
// buffer or a longer stretch, so no caller can make it write out of range.
func compactAVX512(x uint64, words []uint64, maxD uint, hits []uint32) int {
	hits = hits[:walkBuf:walkBuf]
	_ = hits[:len(words)]
	return compactAsm(x, words, maxD, hits)
}

// credit is a walk's dense pass over one stretch's hits, slots being the
// stretch's slots: slot c's own rows gain each hit's mass at its distance,
// and with patch set each clean hit's rows are delta-patched for c's move.
// The own adm row is accumulated with the filter off too, where walk never
// copies it out: that keeps a branch out of the loop.
func (inc *Incremental) credit(c int32, slots []int32, hits []uint32, patch bool, own *ownRows) {
	mass, dirty, rows := inc.mass, inc.dirty, inc.rows
	span, admOff, filter := inc.span, inc.admOff, inc.filter
	newM, oldM := mass[c], inc.synced[c]
	delta := newM - oldM
	for _, h := range hits {
		s, d := slots[h>>distBits], int(h&(1<<distBits-1))
		my := mass[s]
		own.all[d] += my
		own.adm[d] += below(my, newM)
		if !patch || dirty[s] {
			continue
		}
		base := int(s) * span
		rows[base+d] += delta
		if filter {
			rows[base+admOff+d] += below(newM, my) - below(oldM, my)
		}
	}
}

// below returns a when a < b and 0 otherwise. The walk's filter decisions
// are coin flips on unordered masses, so they are made without a branch:
// the compare selects an all-ones or zero mask (a conditional move), and
// masking the bits of a non-negative mass yields it or +0.
func below(a, b float64) float64 {
	var mask uint64
	if a < b {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(a) & mask)
}
