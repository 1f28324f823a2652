package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// incrementalVsBatch ingests the distribution's masses into an Incremental
// and compares its snapshot against the batch Reconstruct on every shared
// quantity.
func incrementalVsBatch(t *testing.T, in *dist.Dist, opts Options) {
	t.Helper()
	inc := NewIncremental(in.NumBits(), opts)
	in.Range(func(x bitstr.Bits, p float64) {
		inc.Add(x, p)
	})
	got := inc.Snapshot()
	want := Reconstruct(in, opts)
	if got.Engine != EngineIncremental {
		t.Fatalf("snapshot engine %q", got.Engine)
	}
	if got.Radius != want.Radius {
		t.Fatalf("radius %d vs %d", got.Radius, want.Radius)
	}
	if d := dist.TVD(got.Out, want.Out); d > 1e-12 {
		t.Fatalf("incremental TVD %v from batch", d)
	}
	for d := range want.GlobalCHS {
		if d == 0 {
			continue // incremental pins the self-pair term to exactly 1
		}
		if !almostEq(got.GlobalCHS[d], want.GlobalCHS[d], 1e-9) {
			t.Fatalf("CHS[%d] %v vs %v", d, got.GlobalCHS[d], want.GlobalCHS[d])
		}
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	for n := 4; n <= 14; n += 2 {
		incrementalVsBatch(t, goldenDist(n, int64(n)), Options{})
	}
}

func TestIncrementalMatchesBatchAcrossOptions(t *testing.T) {
	in := goldenDist(10, 21)
	for _, opts := range []Options{
		{Radius: 1},
		{Radius: 10},
		{Weights: UniformWeight},
		{Weights: ExpDecay, Radius: 4},
		{DisableFilter: true},
		{Workers: 1},
		{Workers: 7},
	} {
		incrementalVsBatch(t, in, opts)
	}
}

// TestIncrementalInterleavedSnapshots is the core-level invalidation test: a
// snapshot taken after every batch of updates must equal a fresh batch
// reconstruction of the histogram accumulated so far — i.e. reusing clean
// rows across snapshots never changes the result.
func TestIncrementalInterleavedSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 10
	inc := NewIncremental(n, Options{})
	acc := dist.NewBuilder(n)
	key := bitstr.Bits(rng.Intn(1 << n))
	for round := 0; round < 12; round++ {
		batch := 1 + rng.Intn(40)
		for i := 0; i < batch; i++ {
			// Shots cluster around the key like real noisy output.
			x := key
			flips := rng.Intn(4)
			for f := 0; f < flips; f++ {
				x = bitstr.Flip(x, rng.Intn(n))
			}
			inc.Add(x, 1)
			acc.Add(x, 1)
		}
		got := inc.Snapshot()
		want := Reconstruct(acc.Dist().Normalize(), Options{})
		if d := dist.TVD(got.Out, want.Out); d > 1e-12 {
			t.Fatalf("round %d (%d outcomes): TVD %v", round, acc.Len(), d)
		}
		if a, b := got.Out.MostProbable(), want.Out.MostProbable(); a != b {
			t.Fatalf("round %d: top-1 %b vs %b", round, a, b)
		}
	}
}

// TestIncrementalFullResyncBoundary: crossing the periodic anti-drift
// rebuild must not change results — the delta-patched rows and the freshly
// rebuilt rows describe the same histogram.
func TestIncrementalFullResyncBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 8
	inc := NewIncremental(n, Options{})
	acc := dist.NewBuilder(n)
	inc.resyncIn = 3 // force the boundary within a short test
	for round := 0; round < 8; round++ {
		for i := 0; i < 10; i++ {
			x := bitstr.Bits(rng.Intn(1 << n))
			inc.Add(x, 1)
			acc.Add(x, 1)
		}
		got := inc.Snapshot()
		want := Reconstruct(acc.Dist().Normalize(), Options{})
		if d := dist.TVD(got.Out, want.Out); d > 1e-12 {
			t.Fatalf("round %d (resyncIn now %d): TVD %v", round, inc.resyncIn, d)
		}
	}
}

// TestIncrementalSnapshotBitsPinned pins the exact bits of a stream's
// snapshots: one SHA-256 over every snapshot's outcomes, the
// math.Float64bits of their scores and of GlobalCHS. The 1e-12 agreement
// tests cannot see a walk that adds the same terms in another order; this
// can, because the masses are not integers, so their sums round. The stream
// is dist.Synthetic(20, 2000, 42) scaled by 1e5, then 300 snapshots each
// after 64 unit shots sampled from it, at the default radius: the first and
// the 257th snapshot rebuild every row (the second crosses
// fullResyncEvery), the rest walk the changed outcomes and patch their
// neighbours, and the key outcome's ball holds more hits than one walk
// buffer. Workers 4 runs the full rebuilds in parallel and must give the
// same bits as Workers 1, and on an AVX-512 host both run through both
// bodies of compact.
func TestIncrementalSnapshotBitsPinned(t *testing.T) {
	const (
		n, support, snapshots, shots = 20, 2000, 300, 64
		want                         = "9f9d68175dabfccd86d9c6801d3dcaa01fe9c4d63f81a7125bf56c3f914d5e89"
	)
	seed := dist.Synthetic(n, support, 42)
	var outs []bitstr.Bits
	var cum []float64
	total := 0.0
	seed.Range(func(x bitstr.Bits, p float64) {
		total += p
		outs, cum = append(outs, x), append(cum, total)
	})
	key := seed.MostProbable()
	ball := 0
	for _, y := range outs {
		if d := bitstr.Distance(key, y); d >= 1 && d <= DefaultRadius(n) {
			ball++
		}
	}
	if ball <= walkBuf {
		t.Fatalf("the key outcome's ball holds %d outcomes, want more than %d", ball, walkBuf)
	}
	eachKernel(func(kernel string) {
		for _, workers := range []int{1, 4} {
			inc := NewIncremental(n, Options{Workers: workers})
			seed.Range(func(x bitstr.Bits, p float64) { inc.Add(x, p*1e5) })
			rng := rand.New(rand.NewSource(9))
			h := sha256.New()
			var buf []byte
			for snap := range snapshots {
				if snap > 0 {
					for range shots {
						i, _ := slices.BinarySearch(cum, rng.Float64()*total)
						inc.Add(outs[min(i, len(outs)-1)], 1)
					}
				}
				res := inc.Snapshot()
				buf = buf[:0]
				res.Out.Range(func(x bitstr.Bits, p float64) {
					buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
				})
				for _, c := range res.GlobalCHS {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
				}
				h.Write(buf)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s kernel, Workers %d: snapshot bits SHA-256 %s, pinned %s", kernel, workers, got, want)
			}
		}
	})
}

// TestIncrementalSnapshotCached: repeated snapshots with no intervening Add
// return the identical Result, and ingestion invalidates the cache.
func TestIncrementalSnapshotCached(t *testing.T) {
	inc := NewIncremental(4, Options{})
	inc.Add(0b1111, 10)
	inc.Add(0b1110, 3)
	first := inc.Snapshot()
	if second := inc.Snapshot(); second != first {
		t.Error("snapshot not cached across no-op interval")
	}
	inc.Add(0b0111, 2)
	if third := inc.Snapshot(); third == first {
		t.Error("snapshot cache not invalidated by Add")
	}
}

func TestIncrementalAccessors(t *testing.T) {
	inc := NewIncremental(6, Options{Radius: 2})
	if inc.NumBits() != 6 || inc.Radius() != 2 {
		t.Errorf("n=%d radius=%d", inc.NumBits(), inc.Radius())
	}
	inc.Add(0b000111, 4)
	inc.Add(0b000111, 1)
	inc.Add(0b111000, 5)
	if inc.Support() != 2 || inc.Total() != 10 {
		t.Errorf("support=%d total=%v", inc.Support(), inc.Total())
	}
}

func TestIncrementalPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"width 0":        func() { NewIncremental(0, Options{}) },
		"topm":           func() { NewIncremental(4, Options{TopM: 8}) },
		"batch engine":   func() { NewIncremental(4, Options{Engine: EngineExact}) },
		"empty snapshot": func() { NewIncremental(4, Options{}).Snapshot() },
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

// TestIncrementalWidthAndMassPanics: widths past 64 bits, outcomes wider
// than the state and negative masses are programming errors, not data.
func TestIncrementalWidthAndMassPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"width 65":      func() { NewIncremental(65, Options{}) },
		"out of width":  func() { NewIncremental(3, Options{}).Add(0b1000, 1) },
		"negative mass": func() { NewIncremental(3, Options{}).Add(0b001, -1) },
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

// TestIncrementalAddAndMass: repeated Adds of one outcome accumulate in its
// slot, a new outcome takes the next slot and joins the bucket of its
// Hamming weight, and an outcome never added holds no slot.
func TestIncrementalAddAndMass(t *testing.T) {
	inc := NewIncremental(4, Options{})
	inc.Add(0b1010, 3)
	inc.Add(0b1010, 2)
	inc.Add(0b0001, 1)
	for _, want := range []struct {
		x    bitstr.Bits
		slot int32
		mass float64
	}{{0b1010, 0, 5}, {0b0001, 1, 1}} {
		s, ok := inc.slot[want.x]
		if !ok || s != want.slot || inc.mass[s] != want.mass {
			t.Errorf("%04b: slot %d (present %v) mass %v, want slot %d mass %v",
				want.x, s, ok, inc.mass[s], want.slot, want.mass)
		}
	}
	if _, ok := inc.slot[0b1111]; ok {
		t.Error("never-added outcome holds a slot")
	}
	if inc.Support() != 2 || inc.Total() != 6 {
		t.Errorf("support=%d total=%v", inc.Support(), inc.Total())
	}
	for w, want := range [][]int32{nil, {1}, {0}, nil, nil} {
		if !slices.Equal(inc.slots[w], want) {
			t.Errorf("weight %d bucket slots %v, want %v", w, inc.slots[w], want)
		}
	}
}

// TestIncrementalZeroMassStaysInSupport: a zero-mass Add keeps the outcome
// in the support and in the snapshot — HAMMER distinguishes "observed with
// vanishing likelihood" from "never observed".
func TestIncrementalZeroMassStaysInSupport(t *testing.T) {
	inc := NewIncremental(3, Options{})
	inc.Add(0b101, 0)
	inc.Add(0b111, 2)
	if inc.Support() != 2 || inc.Total() != 2 {
		t.Fatalf("support=%d total=%v", inc.Support(), inc.Total())
	}
	if got := inc.Snapshot().Out.Len(); got != 2 {
		t.Errorf("snapshot support %d, want 2", got)
	}
}

// TestIncrementalRangeOrder: Range walks ascending Hamming weight, insertion
// order within a weight, with each outcome's accumulated mass.
func TestIncrementalRangeOrder(t *testing.T) {
	inc := NewIncremental(4, Options{})
	inc.Add(0b1110, 1) // w=3
	inc.Add(0b0001, 2) // w=1, first in bucket
	inc.Add(0b1000, 3) // w=1, second in bucket
	inc.Add(0b0000, 4) // w=0
	inc.Add(0b0001, 5)
	var got []bitstr.Bits
	var masses []float64
	inc.Range(func(x bitstr.Bits, m float64) {
		got = append(got, x)
		masses = append(masses, m)
	})
	want := []bitstr.Bits{0b0000, 0b0001, 0b1000, 0b1110}
	wantM := []float64{4, 7, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] || masses[i] != wantM[i] {
			t.Fatalf("order %v masses %v, want %v %v", got, masses, want, wantM)
		}
	}
}

// TestIncrementalRowsMatchBruteForce: the ball walks find exactly the
// in-radius neighbors. After every interleaved snapshot each outcome's rows
// must equal a brute-force sum over bitstr.Distance against every other
// outcome. Masses are small integers, so every row entry is an exact
// integer sum and rebuilt and delta-patched rows must match it exactly.
func TestIncrementalRowsMatchBruteForce(t *testing.T) {
	const n = 8
	for _, opts := range []Options{
		{Radius: 1}, {Radius: 3}, {}, {Radius: n},
		{Radius: 3, DisableFilter: true},
	} {
		rng := rand.New(rand.NewSource(11))
		inc := NewIncremental(n, opts)
		for round := 0; round < 12; round++ {
			for i := 1 + rng.Intn(60); i > 0; i-- {
				inc.Add(bitstr.Bits(rng.Intn(1<<n)), float64(rng.Intn(5)))
			}
			inc.Snapshot()
			checkRows(t, inc, round)
		}
	}
}

// TestIncrementalRowsSpanStretches: a weight bucket larger than walkBuf is
// walked in several stretches, each compacted and credited in turn. On a
// full 12-bit support the weight-6 bucket holds 924 outcomes; every row must
// still equal a brute-force recount after the full rebuild and after a
// partial pass that patches.
func TestIncrementalRowsSpanStretches(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(13))
	inc := NewIncremental(n, Options{Radius: 4})
	for x := range 1 << n {
		inc.Add(bitstr.Bits(x), float64(1+rng.Intn(9)))
	}
	if len(inc.words[n/2]) <= walkBuf {
		t.Fatalf("weight-%d bucket holds %d outcomes, want more than %d", n/2, len(inc.words[n/2]), walkBuf)
	}
	for round := range 2 {
		for i := 200 * round; i > 0; i-- {
			inc.Add(bitstr.Bits(rng.Intn(1<<n)), float64(rng.Intn(5)))
		}
		inc.Snapshot()
		checkRows(t, inc, round)
	}
}

// checkRows compares every slot's rows with a brute-force recount.
func checkRows(t *testing.T, inc *Incremental, round int) {
	t.Helper()
	maxD := inc.Radius()
	for s, x := range inc.outs {
		all := make([]float64, maxD+1)
		adm := make([]float64, maxD+1)
		mx := inc.mass[s]
		for y, my := range inc.mass {
			d := bitstr.Distance(x, inc.outs[y])
			if d == 0 || d > maxD {
				continue
			}
			all[d] += my
			if my < mx || !inc.filter {
				adm[d] += my
			}
		}
		row := inc.rows[s*inc.span:]
		for d := 1; d <= maxD; d++ {
			if row[d] != all[d] || row[inc.admOff+d] != adm[d] {
				t.Fatalf("radius %d filter %v round %d: outcome %b at d=%d: rows (%v, %v), brute force (%v, %v)",
					maxD, inc.filter, round, x, d, row[d], row[inc.admOff+d], all[d], adm[d])
			}
		}
	}
}

// TestIncrementalSnapshotAllocsFlat: a warmed Add+Snapshot cycle allocates
// only its output — the Result, its CHS and weight vectors, the Dist — and
// nothing per changed outcome, so touching 64 outcomes allocates exactly as
// often as touching 8.
func TestIncrementalSnapshotAllocsFlat(t *testing.T) {
	allocs := func(changed int) float64 {
		rng := rand.New(rand.NewSource(4))
		const n, support = 12, 256
		inc := NewIncremental(n, Options{Workers: 1})
		var outs []bitstr.Bits
		for len(outs) < support {
			x := bitstr.Bits(rng.Intn(1 << n))
			if _, seen := inc.slot[x]; !seen {
				outs = append(outs, x)
			}
			inc.Add(x, float64(1+rng.Intn(50)))
		}
		inc.Snapshot()
		next := 0
		return testing.AllocsPerRun(50, func() {
			for j := 0; j < changed; j++ {
				inc.Add(outs[next%len(outs)], 1)
				next++
			}
			inc.Snapshot()
		})
	}
	if few, many := allocs(8), allocs(64); few != many {
		t.Errorf("allocs per Add+Snapshot: %v with 8 changed outcomes, %v with 64", few, many)
	}
}

// TestIncrementalSingleOutcome: the degenerate one-outcome stream must
// reconstruct to certainty, not panic on an empty neighborhood.
func TestIncrementalSingleOutcome(t *testing.T) {
	inc := NewIncremental(5, Options{})
	inc.Add(0b10101, 7)
	res := inc.Snapshot()
	if p := res.Out.Prob(0b10101); !almostEq(p, 1, 1e-15) {
		t.Errorf("prob %v", p)
	}
}

// accumulated returns the normalized histogram an Incremental has
// accumulated: the batch path's input for the same shots.
func accumulated(inc *Incremental) *dist.Dist {
	b := dist.NewBuilder(inc.NumBits())
	inc.Range(func(x bitstr.Bits, m float64) { b.Set(x, m) })
	return b.Dist().Normalize()
}

// BenchmarkIncrementalSnapshot pins the tentpole's perf claim at the core
// level: after a small batch lands on a 20-bit / 2000-outcome accumulated
// stream, the incremental snapshot must be measurably cheaper than a full
// batch reconstruction of the same histogram. The root BenchmarkStreamSnapshot
// measures the same through the public facade.
//
// The incremental and batch rows run on a cluster — every outcome within
// five flips of a key — where 98.9% of the candidates a walk visits lie
// within the default radius. The workload row runs the serving benchmark's
// stream shape instead, where 41.1% do: dist.Synthetic(20, 2000, 42) as
// integer counts, and per snapshot 128 shots sampled from them, the plain
// and the ?snapshot=1 ingest of 64 shots each that the stream workload
// alternates.
func BenchmarkIncrementalSnapshot(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, support, batch = 20, 2000, 64
	build := func() (*Incremental, []bitstr.Bits) {
		inc := NewIncremental(n, Options{})
		outs := make([]bitstr.Bits, 0, support)
		key := bitstr.Bits(rng.Int63()) & bitstr.AllOnes(n)
		for len(outs) < support {
			x := key
			for f := rng.Intn(6); f > 0; f-- {
				x = bitstr.Flip(x, rng.Intn(n))
			}
			if _, seen := inc.slot[x]; !seen {
				outs = append(outs, x)
			}
			inc.Add(x, float64(1+rng.Intn(100)))
		}
		return inc, outs
	}
	inc, outs := build()
	inc.Snapshot() // settle the initial full pass

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				inc.Add(outs[(i*batch+j)%len(outs)], 1)
			}
			inc.Snapshot()
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				inc.Add(outs[(i*batch+j)%len(outs)], 1)
			}
			Reconstruct(accumulated(inc), Options{})
		}
	})
	b.Run("workload", func(b *testing.B) {
		seed := dist.Synthetic(n, support, 42)
		stream := NewIncremental(n, Options{})
		var outs []bitstr.Bits
		var cum []int
		total := 0
		seed.Range(func(x bitstr.Bits, p float64) {
			k := int(math.Round(p * 1e5))
			stream.Add(x, float64(k))
			total += k
			outs, cum = append(outs, x), append(cum, total)
		})
		stream.Snapshot()
		rng := rand.New(rand.NewSource(9))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			for range 2 * batch {
				i, _ := slices.BinarySearch(cum, 1+rng.Intn(total))
				stream.Add(outs[i], 1)
			}
			stream.Snapshot()
		}
	})
}
