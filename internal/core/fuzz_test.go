package core

import (
	"encoding/binary"
	"math"
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
	d := dist.New(n)
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
		d.Add(x, float64(1+flags>>4))
	}
	return d.Normalize()
}

// FuzzBlockedRadius pins the blocked engine — whichever scan its count rule
// picks — to the exact reference within 1e-12 per outcome and per global
// CHS entry, over fuzzed histograms, widths, radii (0 = the paper's default)
// and worker counts.
func FuzzBlockedRadius(f *testing.F) {
	seed := func(key uint64, chunks ...[4]byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, key)
		for _, c := range chunks {
			b = append(b, c[:]...)
		}
		return b
	}
	near := [][4]byte{{0, 1, 2, 0x17}, {3, 4, 5, 0x23}, {6, 0, 0, 0x31}, {7, 8, 0, 0x13}, {9, 1, 5, 0x07}, {2, 2, 2, 0x1f}}
	f.Add(seed(0xdeadbeef, near...), uint8(20), uint8(3), uint8(0))
	f.Add(seed(0x0123456789abcdef, near...), uint8(64), uint8(2), uint8(3))
	f.Add(seed(0x5a5a, near...), uint8(33), uint8(5), uint8(1))
	f.Add(seed(1, near[:2]...), uint8(4), uint8(0), uint8(2))
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
	})
}
