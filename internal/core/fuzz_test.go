package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// fuzzDist decodes fuzz bytes into an n-bit histogram: the first eight bytes
// pick a key, and each following four-byte chunk adds an outcome up to three
// bit flips from it — or, when the fourth byte's bit 3 is set, one far from
// it — with a small integer count. The support stays within a few hundred
// outcomes, so the exact reference stays cheap.
func fuzzDist(data []byte, n int) *dist.Dist {
	if len(data) < 12 {
		return nil
	}
	all := bitstr.AllOnes(n)
	key := bitstr.Bits(binary.LittleEndian.Uint64(data)) & all
	b := dist.NewBuilder(n)
	for c := data[8:min(len(data), 8+4*256)]; len(c) >= 4; c = c[4:] {
		x, flags := key, c[3]
		for k := 0; k < 3; k++ {
			if flags&(1<<k) != 0 {
				x = bitstr.Flip(x, int(c[k])%n)
			}
		}
		if flags&8 != 0 {
			x ^= bitstr.Bits(binary.LittleEndian.Uint32(c)) * 0x9E3779B97F4A7C15 & all
		}
		b.Add(x, float64(1+flags>>4))
	}
	return b.Dist().Normalize()
}

// fuzzSeed is a fuzzDist input: the key, then one four-byte chunk per
// outcome.
func fuzzSeed(key uint64, chunks ...[4]byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, key)
	for _, c := range chunks {
		b = append(b, c[:]...)
	}
	return b
}

// fuzzNear are seed chunks for outcomes one to three flips from the key,
// and one far from it.
var fuzzNear = [][4]byte{{0, 1, 2, 0x17}, {3, 4, 5, 0x23}, {6, 0, 0, 0x31}, {7, 8, 0, 0x13}, {9, 1, 5, 0x07}, {2, 2, 2, 0x1f}}

// FuzzBlockedRadius pins the blocked engine — whichever scan its count rule
// picks — to the exact reference within 1e-12 per outcome and per global
// CHS entry, and both to the oracle within 1e-12 per outcome, over fuzzed
// histograms, widths, radii (0 = the paper's default) and worker counts.
func FuzzBlockedRadius(f *testing.F) {
	f.Add(fuzzSeed(0xdeadbeef, fuzzNear...), uint8(20), uint8(3), uint8(0))
	f.Add(fuzzSeed(0x0123456789abcdef, fuzzNear...), uint8(64), uint8(2), uint8(3))
	f.Add(fuzzSeed(0x5a5a, fuzzNear...), uint8(33), uint8(5), uint8(1))
	f.Add(fuzzSeed(1, fuzzNear[:2]...), uint8(4), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, width, radius, workers uint8) {
		n := 1 + int(width)%bitstr.MaxBits
		in := fuzzDist(data, n)
		if in == nil {
			return
		}
		opts := Options{Radius: int(radius) % (n + 1), Workers: 1 + int(workers)%4}
		opts.Engine = EngineExact
		ex := Reconstruct(in, opts)
		opts.Engine = EngineBlocked
		got := Reconstruct(in, opts)
		for d := range ex.GlobalCHS {
			if !almostEq(ex.GlobalCHS[d], got.GlobalCHS[d], 1e-12) {
				t.Fatalf("n=%d %+v: CHS[%d]: exact %v, blocked %v", n, opts, d, ex.GlobalCHS[d], got.GlobalCHS[d])
			}
		}
		ex.Out.Range(func(x bitstr.Bits, p float64) {
			if q := got.Out.Prob(x); math.Abs(p-q) > 1e-12 {
				t.Fatalf("n=%d %+v: outcome %b: exact %v, blocked %v", n, opts, x, p, q)
			}
		})
		want := oracleOf(histOf(in), opts)
		checkOracle(t, fmt.Sprintf("n=%d %+v exact", n, opts), want, ex.Out)
		checkOracle(t, fmt.Sprintf("n=%d %+v blocked", n, opts), want, got.Out)
	})
}

// FuzzRelabel checks HAMMER's two exact symmetries, XOR by a mask and a
// permutation of the bit columns, on every path: over fuzzDist histograms of
// fuzzed width and radius (0 = the paper's default), exact, blocked and the
// stream must each reconstruct the relabeled histogram to the relabeled
// output, within 1e-12 per outcome (checkRelabel). The permutation is
// rand.Perm of the width under the fuzzed seed.
func FuzzRelabel(f *testing.F) {
	f.Add(fuzzSeed(0xdeadbeef, fuzzNear...), uint64(0x5a5a5), int64(1), uint8(20), uint8(3))
	f.Add(fuzzSeed(0x0123456789abcdef, fuzzNear...), uint64(1<<63|1), int64(2), uint8(64), uint8(2))
	f.Add(fuzzSeed(0x5a5a, fuzzNear...), uint64(0xffff_ffff), int64(3), uint8(33), uint8(5))
	f.Add(fuzzSeed(7, fuzzNear...), uint64(0), int64(4), uint8(12), uint8(0))
	f.Add(fuzzSeed(1, fuzzNear[:2]...), uint64(5), int64(5), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, permSeed int64, width, radius uint8) {
		n := 1 + int(width)%bitstr.MaxBits
		in := fuzzDist(data, n)
		if in == nil {
			return
		}
		perm := rand.New(rand.NewSource(permSeed)).Perm(n)
		m := bitstr.Bits(mask) & bitstr.AllOnes(n)
		checkRelabel(t, fmt.Sprintf("n=%d mask=%#x perm=%v", n, m, perm), in, m, perm,
			Options{Radius: int(radius) % (n + 1)})
	})
}

// FuzzIncrementalSnapshots pins the streaming engine to the batch path: a
// fuzzed sequence of (outcome, count) ingests over a fuzzed width, radius
// (0 = the paper's default), filter setting and weight scheme, with
// snapshots at fuzzed points, must reconstruct every snapshot within 1e-12
// TVD of Reconstruct over the histogram accumulated so far, and within 1e-12
// per outcome of the oracle over the same shots, which the test accumulates
// by key string on its own. The anti-drift
// rebuild is brought down to every few revalidations, so sequences cross it
// as well as the delta-patched partial pass.
//
// The first eight bytes pick a key; each following five-byte chunk is one
// ingest: an outcome built from the key as in fuzzDist (the first four
// bytes), then a count of 1 + c[4]>>1 shots, with a snapshot after the
// ingest when c[4]'s low bit is set. The sequence always ends in one.
func FuzzIncrementalSnapshots(f *testing.F) {
	seed := func(key uint64, chunks ...[5]byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, key)
		for _, c := range chunks {
			b = append(b, c[:]...)
		}
		return b
	}
	ingests := [][5]byte{
		{0, 1, 2, 0x07, 0x10}, {3, 4, 5, 0x03, 0x03}, {6, 0, 0, 0x00, 0x40},
		{7, 8, 0, 0x09, 0x21}, {9, 1, 5, 0x05, 0x02}, {2, 2, 2, 0x0f, 0x05},
		{0, 1, 2, 0x07, 0x01}, {1, 3, 7, 0x06, 0x08}, {4, 4, 4, 0x01, 0x11},
	}
	f.Add(seed(0xdeadbeef, ingests...), uint8(19), uint8(0), uint8(0))
	f.Add(seed(0x0123456789abcdef, ingests...), uint8(63), uint8(2), uint8(0x0b))
	f.Add(seed(0x5a5a, ingests...), uint8(9), uint8(1), uint8(0x13))
	f.Add(seed(0xffff, ingests...), uint8(13), uint8(14), uint8(0x05))
	f.Add(seed(1, ingests[:3]...), uint8(3), uint8(0), uint8(0x01))
	f.Add(seed(0, ingests[:2]...), uint8(0), uint8(1), uint8(0x02))
	f.Fuzz(func(t *testing.T, data []byte, width, radius, flags uint8) {
		if len(data) < 13 {
			return
		}
		n := 1 + int(width)%bitstr.MaxBits
		opts := Options{
			Radius:        int(radius) % (n + 1),
			DisableFilter: flags&1 != 0,
			Weights:       WeightScheme(flags >> 1 & 3 % 3),
			Workers:       1 + int(flags>>3&1),
		}
		resyncEvery := 2 + int(flags>>4&3)
		all := bitstr.AllOnes(n)
		key := bitstr.Bits(binary.LittleEndian.Uint64(data)) & all
		inc := NewIncremental(n, opts)
		acc := dist.NewBuilder(n)
		hist := make(map[string]float64)
		chunks := data[8:min(len(data), 8+5*256)]
		for ; len(chunks) >= 5; chunks = chunks[5:] {
			c := chunks
			x := key
			for k := 0; k < 3; k++ {
				if c[3]&(1<<k) != 0 {
					x = bitstr.Flip(x, int(c[k])%n)
				}
			}
			if c[3]&8 != 0 {
				x ^= bitstr.Bits(binary.LittleEndian.Uint32(c)) * 0x9E3779B97F4A7C15 & all
			}
			k := float64(1 + c[4]>>1)
			inc.Add(x, k)
			acc.Add(x, k)
			hist[bitstr.Format(x, n)] += k
			if c[4]&1 == 0 && len(chunks) >= 10 {
				continue
			}
			got := inc.Snapshot()
			want := Reconstruct(acc.Dist().Normalize(), opts)
			if got.Radius != want.Radius {
				t.Fatalf("n=%d %+v: radius %d vs %d", n, opts, got.Radius, want.Radius)
			}
			if d := dist.TVD(got.Out, want.Out); !(d <= 1e-12) {
				t.Fatalf("n=%d %+v, %d outcomes: incremental TVD %v from batch", n, opts, acc.Len(), d)
			}
			checkOracle(t, fmt.Sprintf("n=%d %+v, %d outcomes", n, opts, len(hist)), oracleOf(hist, opts), got.Out)
			inc.resyncIn = min(inc.resyncIn, resyncEvery)
		}
	})
}
