package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

func TestNewSessionValidation(t *testing.T) {
	for name, opts := range map[string]Options{
		"negative radius": {Radius: -1},
		"negative TopM":   {TopM: -2},
		"unknown scheme":  {Weights: WeightScheme(42)},
		"unknown engine":  {Engine: "fpga"},
		"streaming-only":  {Engine: EngineIncremental},
	} {
		if _, err := NewSession(opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, opts := range map[string]Options{
		"zero":     {},
		"auto":     {Engine: EngineAuto},
		"exact":    {Engine: EngineExact},
		"bucketed": {Engine: EngineBucketed},
		"blocked":  {Engine: EngineBlocked},
		"full":     {Radius: 3, Weights: ExpDecay, TopM: 10, Workers: 2, DisableFilter: true},
	} {
		if _, err := NewSession(opts); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// TestSessionReuseMatchesOneShot is the heart of the refactor's compatibility
// contract: one session reconstructing many different histograms back to back
// (reusing every buffer) must produce exactly the one-shot Reconstruct result
// for each, across engines, widths, option variants, and TopM truncation.
func TestSessionReuseMatchesOneShot(t *testing.T) {
	cases := []Options{
		{},
		{Engine: EngineExact},
		{Engine: EngineBucketed},
		{Engine: EngineBucketed, Workers: 4},
		{Engine: EngineBlocked},
		{Engine: EngineBlocked, Workers: 4},
		{Engine: EngineBlocked, TopM: 40},
		{Engine: EngineBlocked, DisableFilter: true, Workers: 3},
		{Radius: 2, Weights: ExpDecay},
		{TopM: 40},
		{DisableFilter: true, Workers: 3},
	}
	for ci, opts := range cases {
		sess, err := NewSession(opts)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		// Alternating widths and supports forces the buffers to grow,
		// shrink, and rebuild across calls.
		for trial, n := range []int{8, 12, 12, 6, 14, 12} {
			in := goldenDist(n, int64(ci*100+trial))
			got, err := sess.Reconstruct(context.Background(), in)
			if err != nil {
				t.Fatalf("case %d trial %d: %v", ci, trial, err)
			}
			want := Reconstruct(in, opts)
			if got.Engine != want.Engine || got.Radius != want.Radius {
				t.Fatalf("case %d trial %d: meta %s/%d vs %s/%d",
					ci, trial, got.Engine, got.Radius, want.Engine, want.Radius)
			}
			if d := dist.TVD(got.Out, want.Out); d != 0 {
				t.Fatalf("case %d trial %d: session diverges from one-shot, TVD %v", ci, trial, d)
			}
			want.Out.Range(func(x bitstr.Bits, p float64) {
				if got.Out.Prob(x) != p {
					t.Fatalf("case %d trial %d: outcome %b: %v vs %v (not byte-identical)",
						ci, trial, x, got.Out.Prob(x), p)
				}
			})
			for d := range want.GlobalCHS {
				if got.GlobalCHS[d] != want.GlobalCHS[d] || got.Weights[d] != want.Weights[d] {
					t.Fatalf("case %d trial %d: CHS/W[%d] differ", ci, trial, d)
				}
			}
		}
	}
}

func TestSessionEmptyInput(t *testing.T) {
	sess, err := NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Reconstruct(context.Background(), dist.NewBuilder(4).Dist()); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := sess.Reconstruct(context.Background(), nil); err == nil {
		t.Error("nil distribution accepted")
	}
	// The session stays usable after an error.
	if _, err := sess.Reconstruct(context.Background(), fig4Example()); err != nil {
		t.Errorf("session unusable after error: %v", err)
	}
}

func TestSessionCancellation(t *testing.T) {
	in := goldenDist(14, 5)
	for _, engine := range []string{EngineExact, EngineBucketed, EngineBlocked} {
		for _, workers := range []int{1, 4} {
			sess, err := NewSession(Options{Engine: engine, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // already canceled: the scan must abort and report it
			if _, err := sess.Reconstruct(ctx, in); err != context.Canceled {
				t.Errorf("%s/workers=%d: canceled reconstruct returned %v", engine, workers, err)
			}
			// The same session must recover and produce the exact result.
			got, err := sess.Reconstruct(context.Background(), in)
			if err != nil {
				t.Fatalf("%s/workers=%d: post-cancel reconstruct: %v", engine, workers, err)
			}
			want := Reconstruct(in, Options{Engine: engine, Workers: workers})
			if d := dist.TVD(got.Out, want.Out); d != 0 {
				t.Errorf("%s/workers=%d: post-cancel result diverges, TVD %v", engine, workers, d)
			}
		}
	}
}

func TestSessionNilContext(t *testing.T) {
	sess, err := NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 the session documents nil as Background
	if _, err := sess.Reconstruct(nil, fig4Example()); err != nil { //nolint:staticcheck
		t.Errorf("nil context: %v", err)
	}
}

// TestSessionResultOwnership pins the documented aliasing: the next
// Reconstruct overwrites the previously returned result.
func TestSessionResultOwnership(t *testing.T) {
	sess, err := NewSession(Options{Engine: EngineBucketed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := goldenDist(10, 1)
	b := goldenDist(10, 2)
	resA, err := sess.Reconstruct(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	topA := resA.Out.MostProbable()
	pA := resA.Out.Prob(topA)
	if _, err := sess.Reconstruct(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if resA.Out.Prob(topA) == pA && dist.TVD(resA.Out, Reconstruct(a, Options{Engine: EngineBucketed, Workers: 1}).Out) == 0 {
		t.Skip("distinct inputs coincided; ownership not observable")
	}
	// resA now views the second reconstruction: that is the contract. The
	// one-shot wrapper, by contrast, hands out independent results.
	one := Reconstruct(a, Options{Engine: EngineBucketed, Workers: 1})
	Reconstruct(b, Options{Engine: EngineBucketed, Workers: 1})
	if d := dist.TVD(one.Out, Reconstruct(a, Options{Engine: EngineBucketed, Workers: 1}).Out); d != 0 {
		t.Errorf("one-shot result mutated by later call: TVD %v", d)
	}
}

// TestSessionAllocationFreeAfterWarmup asserts the headline property of the
// refactor: a warmed-up single-threaded session reconstructs without
// allocating — on the blocked engine's weight-window scan (default radius)
// and its block multi-index scan (radius 1) alike.
func TestSessionAllocationFreeAfterWarmup(t *testing.T) {
	if !usesMultiIndex(goldenDist(12, 9), 1) {
		t.Fatal("test premise broken: radius 1 does not take the multi-index scan")
	}
	for _, opts := range []Options{
		{Engine: EngineExact, Workers: 1},
		{Engine: EngineBlocked, Workers: 1},
		{Engine: EngineBlocked, Radius: 1, Workers: 1},
	} {
		engine := fmt.Sprintf("%s radius %d", opts.Engine, opts.Radius)
		sess, err := NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		in := goldenDist(12, 9)
		ctx := context.Background()
		for i := 0; i < 3; i++ { // warm up
			if _, err := sess.Reconstruct(ctx, in); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := sess.Reconstruct(ctx, in); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0.5 {
			t.Errorf("%s: warmed-up session allocates %.1f allocs/op", engine, avg)
		}
	}
}

// TestAblationSlabsPooled pins the DisableFilter slab pooling: after the
// first call sizes the backing buffer, repeated carves of same-or-smaller
// shapes allocate nothing and return zeroed slabs.
func TestAblationSlabsPooled(t *testing.T) {
	var s Scratch
	first := s.ablationSlabs(4, 50, 7)
	if len(first) != 4 || len(first[0]) != 50*7 {
		t.Fatalf("slab shape = %d x %d", len(first), len(first[0]))
	}
	first[3][50*7-1] = 42 // dirty a slab: the next carve must re-zero it
	avg := testing.AllocsPerRun(20, func() {
		slabs := s.ablationSlabs(4, 50, 7)
		for w, slab := range slabs {
			for i, v := range slab {
				if v != 0 {
					t.Fatalf("slab[%d][%d] = %v, want 0", w, i, v)
				}
			}
		}
	})
	if avg > 0 {
		t.Errorf("warmed-up ablation slabs allocate %.1f allocs/op", avg)
	}
	// Writes through one slab must not alias another.
	slabs := s.ablationSlabs(2, 10, 3)
	slabs[0][29] = 1
	if slabs[1][0] != 0 {
		t.Error("adjacent slabs alias")
	}
}

func TestSessionUnknownEngineError(t *testing.T) {
	if _, err := NewSession(Options{Engine: "quantum-annealer"}); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("err = %v", err)
	}
}

func TestSessionCompatibleWith(t *testing.T) {
	opts := Options{Radius: 3, Workers: 1}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !s.CompatibleWith(opts) {
		t.Error("session incompatible with its own options")
	}
	for _, other := range []Options{
		{Radius: 2, Workers: 1},
		{Radius: 3, Workers: 1, Engine: EngineExact},
		{Radius: 3, Workers: 1, TopM: 10},
		{Radius: 3, Workers: 2},
	} {
		if s.CompatibleWith(other) {
			t.Errorf("session claims compatibility with differing options %+v", other)
		}
	}
}

// TestSessionReconfigure: a reconfigured session serves the new options with
// results identical to a fresh session, and invalid options leave it
// untouched.
func TestSessionReconfigure(t *testing.T) {
	s, err := NewSession(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := goldenDist(12, 77)
	if _, err := s.Reconstruct(context.Background(), in); err != nil {
		t.Fatal(err) // warm the scratch under the original options
	}

	next := Options{Radius: 2, Workers: 1, Engine: EngineExact}
	if err := s.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	if got := s.Options(); got != next {
		t.Fatalf("Options() = %+v after Reconfigure(%+v)", got, next)
	}
	res, err := s.Reconstruct(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want := Reconstruct(in, next)
	if d := dist.TVD(res.Out, want.Out); d != 0 {
		t.Errorf("reconfigured session diverges from fresh session, TVD %v", d)
	}
	if res.Engine != want.Engine || res.Radius != want.Radius {
		t.Errorf("metadata (%s, %d), want (%s, %d)", res.Engine, res.Radius, want.Engine, want.Radius)
	}

	// Invalid options are rejected and do not change the session.
	for _, bad := range []Options{
		{Radius: -1, Workers: 1},
		{TopM: -2, Workers: 1},
		{Engine: "fpga", Workers: 1},
		{Weights: WeightScheme(99), Workers: 1},
	} {
		if err := s.Reconfigure(bad); err == nil {
			t.Errorf("Reconfigure accepted invalid options %+v", bad)
		}
		if got := s.Options(); got != next {
			t.Fatalf("failed Reconfigure mutated the session: %+v", got)
		}
	}
	if _, err := s.Reconstruct(context.Background(), in); err != nil {
		t.Errorf("session unusable after rejected Reconfigure: %v", err)
	}
}
