package dist

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
)

// wideDist is randomDist for widths up to 64 bits.
func wideDist(n, support int, seed int64) *Dist {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for b.Len() < support {
		b.Set(bitstr.Bits(rng.Uint64())&bitstr.AllOnes(n), float64(1+rng.Intn(9)))
	}
	return b.Dist()
}

// TestMultiIndexMirrorsBruteForce pins the layout against a direct
// enumeration: for every block, each rank's candidates are exactly the
// outcomes ranked after it with the same bucket key, in ascending rank
// order; the candidate count is the number of such pairs; and on blocks no
// wider than the bucket key, sharing a bucket means agreeing on the block.
// Widths 10 (one-bit-uneven blocks), 33 (hashed 17- and 16-bit blocks at
// radius 1) and 64 cover both keyings.
func TestMultiIndexMirrorsBruteForce(t *testing.T) {
	for _, tc := range []struct{ n, support, radius int }{
		{10, 300, 2}, {10, 300, 4}, {33, 400, 1}, {33, 400, 3}, {64, 200, 1}, {64, 200, 7},
	} {
		ix := NewIndex(wideDist(tc.n, tc.support, int64(tc.n*10+tc.radius)))
		var mi MultiIndex
		count, built := mi.Reset(ix, tc.radius, 1<<62)
		if !built {
			t.Fatalf("%+v: not built under an unbounded limit", tc)
		}
		masks := mi.Masks()
		if len(masks) != tc.radius+1 {
			t.Fatalf("%+v: %d blocks", tc, len(masks))
		}
		var union uint64
		for b, m := range masks {
			if union&m != 0 || bits.OnesCount64(m) != blockWidth(tc.n, tc.radius+1, b) {
				t.Fatalf("%+v: block %d mask %b overlaps or has the wrong width", tc, b, m)
			}
			union |= m
		}
		if union != bitstr.AllOnes(tc.n) {
			t.Fatalf("%+v: blocks cover %b", tc, union)
		}
		ranked := ix.Ranked()
		var want int64
		for b := range masks {
			for i := range ranked {
				words, probs := mi.After(b, i)
				k := 0
				for j := i + 1; j < len(ranked); j++ {
					if mi.key(b, ranked[j].X) != mi.key(b, ranked[i].X) {
						continue
					}
					if k >= len(words) || words[k] != ranked[j].X || probs[k] != ranked[j].P {
						t.Fatalf("%+v: block %d rank %d: candidate %d is not rank %d", tc, b, i, k, j)
					}
					if int(mi.width[b]) <= mi.keyBits && (ranked[i].X^ranked[j].X)&masks[b] != 0 {
						t.Fatalf("%+v: block %d: unhashed bucket holds outcomes that disagree", tc, b)
					}
					k++
				}
				if k != len(words) {
					t.Fatalf("%+v: block %d rank %d: %d candidates, want %d", tc, b, i, len(words), k)
				}
				want += int64(k)
			}
		}
		if count != want {
			t.Fatalf("%+v: candidate count %d, brute force %d", tc, count, want)
		}
		if c, built := mi.Reset(ix, tc.radius, count-1); built || c <= count-1 {
			t.Fatalf("%+v: limit %d below the count: built=%v, count %d", tc, count-1, built, c)
		}
	}
}

// TestWindowPairsBruteForce pins the weight-window count: the unordered
// pairs whose Hamming weights differ by at most the radius.
func TestWindowPairsBruteForce(t *testing.T) {
	ix := NewIndex(wideDist(12, 500, 5))
	ranked := ix.Ranked()
	for r := 0; r <= 12; r++ {
		var want int64
		for i := range ranked {
			for j := i + 1; j < len(ranked); j++ {
				if d := ranked[i].W - ranked[j].W; d <= r && -d <= r {
					want++
				}
			}
		}
		if got := ix.WindowPairs(r); got != want {
			t.Fatalf("radius %d: WindowPairs %d, brute force %d", r, got, want)
		}
	}
}

// TestMultiIndexResetAllocationFree pins the in-place rebuild: once grown,
// rebuilding for same-or-smaller problems allocates nothing.
func TestMultiIndexResetAllocationFree(t *testing.T) {
	a := NewIndex(wideDist(20, 800, 1))
	b := NewIndex(wideDist(20, 600, 2))
	var mi MultiIndex
	mi.Reset(a, 3, 1<<62)
	avg := testing.AllocsPerRun(20, func() {
		mi.Reset(b, 2, 1<<62)
		mi.Reset(a, 3, 1<<62)
	})
	if avg != 0 {
		t.Fatalf("warmed-up Reset allocates %.1f times per run", avg)
	}
}
