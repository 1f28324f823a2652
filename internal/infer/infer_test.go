package infer

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

func sample() *dist.Dist {
	b := dist.NewBuilder(3)
	b.Set(bitstr.MustParse("111"), 0.30)
	b.Set(bitstr.MustParse("101"), 0.40)
	b.Set(bitstr.MustParse("011"), 0.20)
	b.Set(bitstr.MustParse("000"), 0.10)
	return b.Dist()
}

func TestArgMaxAndTopK(t *testing.T) {
	d := sample()
	if got := ArgMax(d); got != bitstr.MustParse("101") {
		t.Errorf("ArgMax = %s", bitstr.Format(got, 3))
	}
	top := TopK(d, 2)
	if len(top) != 2 || top[0] != bitstr.MustParse("101") || top[1] != bitstr.MustParse("111") {
		t.Errorf("TopK = %v", top)
	}
}

func TestRankOf(t *testing.T) {
	d := sample()
	if got := RankOf(d, []bitstr.Bits{bitstr.MustParse("111")}); got != 2 {
		t.Errorf("rank = %d, want 2", got)
	}
	if got := RankOf(d, []bitstr.Bits{bitstr.MustParse("101")}); got != 1 {
		t.Errorf("rank = %d, want 1", got)
	}
	// Unobserved correct outcome ranks beyond the support.
	if got := RankOf(d, []bitstr.Bits{bitstr.MustParse("110")}); got != d.Len()+1 {
		t.Errorf("unobserved rank = %d", got)
	}
}

func TestSuccessAtK(t *testing.T) {
	d := sample()
	correct := []bitstr.Bits{bitstr.MustParse("111")}
	got := SuccessAtK(d, correct, []int{1, 2, 5})
	want := []bool{false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SuccessAtK = %v, want %v", got, want)
		}
	}
}

func TestSuccess(t *testing.T) {
	correct := []bitstr.Bits{0b01, 0b10}
	if !Success(0b10, correct) || Success(0b11, correct) {
		t.Error("Success membership wrong")
	}
}

func TestMajorityVote(t *testing.T) {
	// Errors are single flips around 111; the per-bit majority recovers it
	// even though 111 itself is not the argmax.
	b := dist.NewBuilder(3)
	b.Set(bitstr.MustParse("111"), 0.30)
	b.Set(bitstr.MustParse("110"), 0.25)
	b.Set(bitstr.MustParse("101"), 0.35)
	b.Set(bitstr.MustParse("011"), 0.10)
	d := b.Dist()
	if got := MajorityVote(d); got != bitstr.MustParse("111") {
		t.Errorf("MajorityVote = %s", bitstr.Format(got, 3))
	}
}

func TestBestVerifiedFindsOptimalCut(t *testing.T) {
	// QAOA-style inference: the optimal cut is only rank 3 by frequency,
	// but classical verification of the top-3 candidates recovers it.
	g := graph.Ring(4)
	opt := g.BruteForce()
	b := dist.NewBuilder(4)
	b.Set(bitstr.MustParse("0001"), 0.4) // poor cut
	b.Set(bitstr.MustParse("0011"), 0.35)
	b.Set(opt.Argmins[0], 0.25)
	d := b.Dist()
	verifier := func(x bitstr.Bits) float64 { return g.CutCost(x) }
	got := BestVerified(d, 3, verifier)
	if !Success(got, opt.Argmins) {
		t.Errorf("BestVerified = %s, not an optimal cut", bitstr.Format(got, 4))
	}
	// With k=1 it degenerates to argmax and fails.
	if got := BestVerified(d, 1, verifier); Success(got, opt.Argmins) {
		t.Error("k=1 should not find the optimum here")
	}
}

func TestHammerImprovesInferenceRank(t *testing.T) {
	// End-to-end: a clustered key at rank 2 moves to rank 1 after HAMMER.
	n := 8
	key := bitstr.MustParse("00000000")
	b := dist.NewBuilder(n)
	b.Set(key, 0.10)
	b.Set(bitstr.MustParse("00011111"), 0.14) // isolated spurious leader
	for i := 0; i < n; i++ {
		b.Set(bitstr.Flip(key, i), 0.05)
	}
	for _, f := range []string{"11110000", "11110011", "11110101", "11111001"} {
		b.Set(bitstr.MustParse(f), 0.09)
	}
	d := b.Dist().Normalize()
	correct := []bitstr.Bits{key}
	before := RankOf(d, correct)
	after := RankOf(core.Run(d), correct)
	if after >= before {
		t.Errorf("rank did not improve: %d -> %d", before, after)
	}
	if after != 1 {
		t.Errorf("rank after HAMMER = %d, want 1", after)
	}
}

func TestPanics(t *testing.T) {
	d := sample()
	for name, fn := range map[string]func(){
		"topk zero":  func() { TopK(d, 0) },
		"rank empty": func() { RankOf(d, nil) },
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
