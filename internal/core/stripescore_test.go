package core

import (
	"context"
	"testing"

	"repro/internal/dist"
)

// scoreStripesRemotely plays the replica side of the wire protocol: each
// stripe of the plan is scored on its own fresh session (as a remote replica
// would) and the partial deep-copied (as JSON decoding would).
func scoreStripesRemotely(t *testing.T, base StripeSpec, plan *dist.StripePlan) []StripePartial {
	t.Helper()
	parts := make([]StripePartial, plan.Len())
	for i, st := range plan.Stripes() {
		spec := base
		spec.Lo, spec.Hi = st.Lo, st.Hi
		replica, err := NewSession(Options{})
		if err != nil {
			t.Fatal(err)
		}
		part, err := replica.ScoreStripe(context.Background(), spec)
		if err != nil {
			t.Fatalf("ScoreStripe[%d]: %v", i, err)
		}
		parts[i] = StripePartial{
			Lo:   part.Lo,
			Hi:   part.Hi,
			CHS:  append([]float64(nil), part.CHS...),
			Rows: append([]float64(nil), part.Rows...),
		}
	}
	return parts
}

// TestStripeScoreCombineMatchesSingleNode shards reconstructions through the
// ScoreStripe/CombineStripes pair across widths, stripe counts, and options
// (including TopM truncation) and pins the assembled output within 1e-12 TVD
// of the single-node engine — the in-process acceptance bound the wire e2e
// repeats over HTTP. The radius-3 cases run the block multi-index scan in
// every stripe. The bucketed cases pin the retired name, which runs blocked.
func TestStripeScoreCombineMatchesSingleNode(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts Options
	}{
		{"blocked-12", 12, Options{Engine: EngineBlocked}},
		{"bucketed-12", 12, Options{Engine: EngineBucketed}},
		{"blocked-16", 16, Options{Engine: EngineBlocked}},
		{"bucketed-16-r2", 16, Options{Engine: EngineBucketed, Radius: 2}},
		{"blocked-16-uniform", 16, Options{Engine: EngineBlocked, Weights: UniformWeight}},
		{"blocked-16-expdecay", 16, Options{Engine: EngineBlocked, Weights: ExpDecay}},
		{"blocked-16-topm", 16, Options{Engine: EngineBlocked, TopM: 200}},
		{"bucketed-18-topm", 18, Options{Engine: EngineBucketed, TopM: 500, Radius: 4}},
		{"auto-16", 16, Options{}},
		{"exact-12", 12, Options{Engine: EngineExact}},
		{"blocked-20-r3", 20, Options{Engine: EngineBlocked, Radius: 3}},
		{"auto-16-r3", 16, Options{Radius: 3}},
		{"blocked-18-topm-r3", 18, Options{Engine: EngineBlocked, TopM: 300, Radius: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := goldenDist(tc.n, int64(tc.n)*31+7)
			if tc.opts.Radius == 3 && tc.opts.TopM == 0 && !usesMultiIndex(in, 3) {
				t.Fatal("test premise broken: radius 3 does not take the multi-index scan")
			}
			single, err := NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := single.Reconstruct(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			ref := want.Out.Clone()
			refCHS := append([]float64(nil), want.GlobalCHS...)

			for _, S := range []int{1, 2, 3, 5} {
				coord, err := NewSession(tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				base, err := coord.ShardProblem(in)
				if err != nil {
					t.Fatal(err)
				}
				plan := dist.NewStripePlan(base.Support(), S)
				parts := scoreStripesRemotely(t, base, plan)
				res, err := coord.CombineStripes(context.Background(), in, parts, "sharded:"+EngineBlocked)
				if err != nil {
					t.Fatalf("CombineStripes S=%d: %v", S, err)
				}
				if tvd := dist.TVD(res.Out, ref); tvd > 1e-12 {
					t.Fatalf("S=%d: sharded output diverges from single-node, TVD %g", S, tvd)
				}
				for d := range refCHS {
					diff := res.GlobalCHS[d] - refCHS[d]
					if diff < 0 {
						diff = -diff
					}
					if diff > 1e-9 {
						t.Fatalf("S=%d: CHS[%d] = %v, want %v", S, d, res.GlobalCHS[d], refCHS[d])
					}
				}
				if res.Engine != "sharded:"+EngineBlocked {
					t.Fatalf("S=%d: engine label %q", S, res.Engine)
				}
			}
		})
	}
}

// TestStripeScoreMatchesStripedEngineExactly pins something stronger on the
// no-truncation path: stripe partials combined on the wire path are
// bit-identical per distance to the in-process striped engine when
// the stripe count equals the worker count — same plan, same passes, same
// fold kernel, same tree shape — on the weight-window scan (default radius)
// and the block multi-index scan (radius 3) alike.
func TestStripeScoreMatchesStripedEngineExactly(t *testing.T) {
	const S = 4
	in := goldenDist(14, 5)
	for _, radius := range []int{0, 3} {
		inproc, err := NewSession(Options{Engine: EngineBlocked, Radius: radius, Workers: S})
		if err != nil {
			t.Fatal(err)
		}
		want, err := inproc.Reconstruct(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		wantCHS := append([]float64(nil), want.GlobalCHS...)

		coord, err := NewSession(Options{Engine: EngineBlocked, Radius: radius}) // workers irrelevant to combine
		if err != nil {
			t.Fatal(err)
		}
		base, err := coord.ShardProblem(in)
		if err != nil {
			t.Fatal(err)
		}
		plan := dist.NewStripePlan(base.Support(), S)
		parts := scoreStripesRemotely(t, base, plan)
		res, err := coord.CombineStripes(context.Background(), in, parts, "")
		if err != nil {
			t.Fatal(err)
		}
		for d := range wantCHS {
			if res.GlobalCHS[d] != wantCHS[d] {
				t.Fatalf("radius %d: CHS[%d]: wire fold %v != in-process fold %v (must be bit-identical)",
					radius, d, res.GlobalCHS[d], wantCHS[d])
			}
		}
	}
}

func TestScoreStripeValidation(t *testing.T) {
	sess, err := NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := StripeSpec{NumBits: 4, Outs: []uint64{1, 2, 3}, Probs: []float64{0.5, 0.3, 0.2}, MaxD: 2, Lo: 0, Hi: 3}
	if _, err := sess.ScoreStripe(context.Background(), good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []StripeSpec{
		{NumBits: 0, Outs: []uint64{1}, Probs: []float64{1}, MaxD: 0, Hi: 1},
		{NumBits: 4, Outs: nil, Probs: nil, MaxD: 1},
		{NumBits: 4, Outs: []uint64{1, 2}, Probs: []float64{1}, MaxD: 1, Hi: 2},
		{NumBits: 4, Outs: []uint64{1, 2}, Probs: []float64{0.5, 0.5}, MaxD: -1, Hi: 2},
		{NumBits: 4, Outs: []uint64{1, 2}, Probs: []float64{0.5, 0.5}, MaxD: 9, Hi: 2},
		{NumBits: 4, Outs: []uint64{1, 2}, Probs: []float64{0.5, 0.5}, MaxD: 1, Lo: 2, Hi: 1},
		{NumBits: 4, Outs: []uint64{1, 2}, Probs: []float64{0.5, 0.5}, MaxD: 1, Lo: 0, Hi: 3},
	}
	for i, spec := range bad {
		if _, err := sess.ScoreStripe(context.Background(), spec); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestCombineStripesValidation(t *testing.T) {
	in := goldenDist(10, 3)
	sess, err := NewSession(Options{Engine: EngineBlocked})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.ShardProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	N := base.Support()
	stride := base.MaxD + 1
	good := scoreStripesRemotely(t, base, dist.NewStripePlan(N, 3))
	if _, err := sess.CombineStripes(context.Background(), in, good, ""); err != nil {
		t.Fatalf("valid partials rejected: %v", err)
	}
	mutate := []func(p []StripePartial){
		func(p []StripePartial) { p[1].Lo++ },                                // gap
		func(p []StripePartial) { p[1].Lo-- },                                // overlap
		func(p []StripePartial) { p[len(p)-1].Hi-- },                         // short coverage
		func(p []StripePartial) { p[0].CHS = p[0].CHS[:stride-1] },           // bad CHS shape
		func(p []StripePartial) { p[0].Rows = p[0].Rows[:len(p[0].Rows)-1] }, // bad rows shape
	}
	for i, mut := range mutate {
		parts := scoreStripesRemotely(t, base, dist.NewStripePlan(N, 3))
		mut(parts)
		if _, err := sess.CombineStripes(context.Background(), in, parts, ""); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	if _, err := sess.CombineStripes(context.Background(), in, nil, ""); err == nil {
		t.Fatal("empty partials accepted")
	}
}

func TestShardProblemRejectsAblation(t *testing.T) {
	sess, err := NewSession(Options{DisableFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ShardProblem(goldenDist(8, 1)); err == nil {
		t.Fatal("DisableFilter reconstruction accepted for sharding")
	}
}

func TestScoreStripeCancellation(t *testing.T) {
	sess, err := NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.ShardProblem(goldenDist(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.ScoreStripe(ctx, base); err != context.Canceled {
		t.Fatalf("ScoreStripe on canceled context: err = %v, want context.Canceled", err)
	}
	if _, err := sess.CombineStripes(ctx, goldenDist(12, 4), nil, ""); err != context.Canceled {
		t.Fatalf("CombineStripes on canceled context: err = %v, want context.Canceled", err)
	}
	// The session remains usable afterwards.
	if _, err := sess.ScoreStripe(context.Background(), base); err != nil {
		t.Fatalf("post-cancel ScoreStripe failed: %v", err)
	}
}
