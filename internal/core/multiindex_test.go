package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// clusterDist builds an n-bit histogram (n up to 64) of integer shot counts
// over `support` outcomes: a heavy key, outcomes a few bit flips away from
// it, and a uniform tail. Counts come from a small range, so equal masses —
// the filter's tie rule — are common.
func clusterDist(n, support int, seed int64) *dist.Dist {
	rng := rand.New(rand.NewSource(seed))
	all := bitstr.AllOnes(n)
	key := bitstr.Bits(rng.Uint64()) & all
	b := dist.NewBuilder(n)
	b.Set(key, 200)
	for b.Len() < support {
		x := bitstr.Bits(rng.Uint64()) & all
		if rng.Intn(4) == 0 {
			x = key
			for k := 1 + rng.Intn(6); k > 0; k-- {
				x = bitstr.Flip(x, rng.Intn(n))
			}
		}
		b.Add(x, float64(1+rng.Intn(12)))
	}
	return b.Dist().Normalize()
}

// usesMultiIndex reports whether the blocked engine scans the support of in
// at radius maxD with the block multi-index rather than the weight window.
func usesMultiIndex(in *dist.Dist, maxD int) bool {
	var outs []bitstr.Bits
	var probs []float64
	in.Range(func(x bitstr.Bits, p float64) {
		outs, probs = append(outs, x), append(probs, p)
	})
	var s Scratch
	return s.blockedScan(s.index(in.NumBits(), outs, probs), maxD, false).mi != nil
}

// relabel applies one of HAMMER's exact symmetries to an outcome: XOR by
// mask, then move bit i to bit perm[i]. Both preserve every Hamming
// distance, so a reconstruction must commute with them.
func relabel(x, mask bitstr.Bits, perm []int) bitstr.Bits {
	x ^= mask
	var y bitstr.Bits
	for i, j := range perm {
		y |= (x >> uint(i) & 1) << uint(j)
	}
	return y
}

// checkRelabel reconstructs in and its relabeling under opts on exact,
// blocked and the stream path, and fails unless each path's output on the
// relabeled histogram is its relabeled output, to 1e-12 per outcome. Both
// streams are fed in's outcomes in ascending order, so the relabeled one
// takes its slots out of outcome order.
func checkRelabel(t testing.TB, label string, in *dist.Dist, mask bitstr.Bits, perm []int, opts Options) {
	t.Helper()
	n := in.NumBits()
	bld := dist.NewBuilder(n)
	in.Range(func(x bitstr.Bits, p float64) { bld.Set(relabel(x, mask, perm), p) })
	moved := bld.Dist()
	stream := func(move bool) *dist.Dist {
		inc := NewIncremental(n, opts)
		in.Range(func(x bitstr.Bits, p float64) {
			if move {
				x = relabel(x, mask, perm)
			}
			inc.Add(x, p)
		})
		return inc.Snapshot().Out
	}
	exact, blocked := opts, opts
	exact.Engine, blocked.Engine = EngineExact, EngineBlocked
	for _, c := range []struct {
		path      string
		want, got *dist.Dist
	}{
		{"exact", Reconstruct(in, exact).Out, Reconstruct(moved, exact).Out},
		{"blocked", Reconstruct(in, blocked).Out, Reconstruct(moved, blocked).Out},
		{"stream", stream(false), stream(true)},
	} {
		if c.want.Len() != c.got.Len() {
			t.Fatalf("%s %s: support %d, relabeled %d", label, c.path, c.want.Len(), c.got.Len())
		}
		c.want.Range(func(x bitstr.Bits, p float64) {
			if q := c.got.Prob(relabel(x, mask, perm)); !(math.Abs(p-q) <= 1e-12) {
				t.Fatalf("%s %s: outcome %b reconstructs to %v, its relabeling to %v", label, c.path, x, p, q)
			}
		})
	}
}

// TestBlockedMetamorphic is an oracle that shares no code with the block
// layout: XOR-relabeling the outcomes and permuting their bit columns moves
// bits between blocks and reshuffles every bucket, yet the reconstruction of
// the relabeled histogram must be the relabeled reconstruction, to 1e-12 per
// outcome, on blocked, exact and the stream path. Widths 33 (blocks of
// unequal width) and 64 (blocks wider than the bucket key, so buckets hash)
// are covered alongside 12 and 20, at every radius from 1 to min(n, 8),
// single-threaded and striped.
func TestBlockedMetamorphic(t *testing.T) {
	for _, n := range []int{12, 20, 33, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		in := clusterDist(n, min(600, 1<<(n-2)), int64(n))
		mask := bitstr.Bits(rng.Uint64()) & bitstr.AllOnes(n)
		perm := rng.Perm(n)
		multi := 0
		for r := 1; r <= min(n, 8); r++ {
			if usesMultiIndex(in, r) {
				multi++
			}
			for _, workers := range []int{1, 4} {
				checkRelabel(t, fmt.Sprintf("n=%d r=%d workers=%d", n, r, workers), in, mask, perm,
					Options{Radius: r, Workers: workers})
			}
		}
		if multi == 0 {
			t.Fatalf("n=%d: no radius took the multi-index scan; the relation tested only the window", n)
		}
	}
}

// TestBlockedScanFallsBackOnConstantBlock pins the count rule on a skewed
// support: when the lowest block is constant across every outcome, all pairs
// share its one bucket, the multi-index would visit every pair, and the
// engine must keep the weight window — and still match exact to 1e-12.
func TestBlockedScanFallsBackOnConstantBlock(t *testing.T) {
	const n, r = 20, 3
	in := clusterDist(n, 800, 7)
	if !usesMultiIndex(in, r) {
		t.Fatal("test premise broken: the unskewed support does not take the multi-index")
	}
	const low = 0x1f // block 0 of the four 5-bit blocks
	bld := dist.NewBuilder(n)
	in.Range(func(x bitstr.Bits, p float64) { bld.Add(x&^low, p) })
	skew := bld.Dist()
	if usesMultiIndex(skew, r) {
		t.Fatal("multi-index chosen with a constant block")
	}
	for _, workers := range []int{1, 4} {
		ex := Reconstruct(skew, Options{Engine: EngineExact, Radius: r})
		got := Reconstruct(skew, Options{Engine: EngineBlocked, Radius: r, Workers: workers})
		ex.Out.Range(func(x bitstr.Bits, p float64) {
			if q := got.Out.Prob(x); math.Abs(p-q) > 1e-12 {
				t.Fatalf("workers=%d: outcome %b: exact %v, blocked %v", workers, x, p, q)
			}
		})
	}
}

// TestBlockedHashedBuckets covers blocks wider than the bucket key, where a
// bucket also holds outcomes that merely collide under the hash. At 64 bits
// and radius 3 the four 16-bit blocks hash into 2^bits.Len(N) buckets; pairs
// two or three flips apart inside block 0 agree on blocks 1-3 and
// occasionally collide in block 0's bucket too. Such a pair must be credited
// once, in block 1 — not also in block 0 — so the reconstruction and the
// global CHS must match exact. Seeds run until a few collisions are seen.
func TestBlockedHashedBuckets(t *testing.T) {
	const n, r = 64, 3
	collided := 0
	for seed := int64(0); seed < 200 && collided < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bld := dist.NewBuilder(n)
		for bld.Len() < 400 {
			x := bitstr.Bits(rng.Uint64())
			y := x
			for k := 2 + rng.Intn(2); k > 0; k-- {
				y = bitstr.Flip(y, rng.Intn(16))
			}
			bld.Add(x, float64(1+rng.Intn(9)))
			bld.Add(y, float64(1+rng.Intn(9)))
		}
		in := bld.Dist().Normalize()
		if !usesMultiIndex(in, r) {
			t.Fatalf("seed %d: test premise broken: radius 3 does not take the multi-index", seed)
		}
		collided += collidedPairs(in, r)
		ex := Reconstruct(in, Options{Engine: EngineExact, Radius: r})
		got := Reconstruct(in, Options{Engine: EngineBlocked, Radius: r})
		for d := range ex.GlobalCHS {
			if !almostEq(ex.GlobalCHS[d], got.GlobalCHS[d], 1e-12) {
				t.Fatalf("seed %d: CHS[%d] exact %v, blocked %v", seed, d, ex.GlobalCHS[d], got.GlobalCHS[d])
			}
		}
		ex.Out.Range(func(x bitstr.Bits, p float64) {
			if q := got.Out.Prob(x); math.Abs(p-q) > 1e-12 {
				t.Fatalf("seed %d: outcome %b: exact %v, blocked %v", seed, x, p, q)
			}
		})
	}
	if collided < 3 {
		t.Fatalf("only %d admitted pairs collided in a hashed bucket; the test exercised too few", collided)
	}
}

// collidedPairs counts the pairs within the radius that share a block's
// bucket without agreeing on that block.
func collidedPairs(in *dist.Dist, maxD int) int {
	ix := dist.NewIndex(in)
	var mi dist.MultiIndex
	mi.Reset(ix, maxD, math.MaxInt64)
	count := 0
	for i, e := range ix.Ranked() {
		for b, m := range mi.Masks() {
			words, _ := mi.After(b, i)
			for _, y := range words {
				if v := e.X ^ y; v&m != 0 && bits.OnesCount64(v) <= maxD {
					count++
				}
			}
		}
	}
	return count
}

// BenchmarkBlockedWindowTies times the weight-window scan on integer shot
// counts, the input shape the serving path sees: a 20-bit / 4000-outcome
// clusterDist at the paper's default radius, scored single-threaded by a
// warm session. Equal counts are common there, so the filter's tie prefix
// runs on most rows; dist.Synthetic's continuous masses never reach it.
func BenchmarkBlockedWindowTies(b *testing.B) {
	const n, support = 20, 4000
	in := clusterDist(n, support, 1)
	if usesMultiIndex(in, DefaultRadius(n)) {
		b.Fatal("the default-radius scan took the multi-index, not the weight window")
	}
	sess, err := NewSession(Options{Engine: EngineBlocked, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sess.Reconstruct(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}
