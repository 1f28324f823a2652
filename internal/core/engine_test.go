package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/dist"
)

// goldenDist builds a randomized histogram shaped like real measured output:
// a cluster of flips around a random key plus a uniform tail, over an n-bit
// space.
func goldenDist(n int, seed int64) *dist.Dist {
	rng := rand.New(rand.NewSource(seed))
	b := dist.NewBuilder(n)
	key := bitstr.Bits(rng.Intn(1 << uint(n)))
	b.Add(key, 0.1+0.1*rng.Float64())
	for i := 0; i < n; i++ {
		b.Add(bitstr.Flip(key, i), 0.01+0.03*rng.Float64())
	}
	support := 1 << uint(n)
	tail := support / 4
	if tail > 400 {
		tail = 400
	}
	for i := 0; i < tail; i++ {
		b.Add(bitstr.Bits(rng.Intn(support)), 0.002*rng.Float64())
	}
	return b.Dist().Normalize()
}

// indexEngines are the batch engines built on the rank-ordered index —
// every cross-engine golden pins each of them against the exact reference
// from one table, so a new engine inherits the whole net by joining the list.
var indexEngines = []string{EngineBlocked}

// TestEnginesAgree is the cross-engine golden test: the exact reference loop
// and every index engine must produce the same reconstruction within 1e-12 —
// and the byte-identical top-1 outcome — on randomized histograms across
// every width from 4 to 22 bits, with and without parallelism.
func TestEnginesAgree(t *testing.T) {
	for n := 4; n <= 22; n++ {
		for _, workers := range []int{1, 4} {
			seed := int64(n*100 + workers)
			in := goldenDist(n, seed)
			ex := Reconstruct(in, Options{Engine: EngineExact, Workers: workers})
			if ex.Engine != EngineExact {
				t.Fatalf("n=%d: exact reported %q", n, ex.Engine)
			}
			want := oracleOf(histOf(in), Options{})
			checkOracle(t, fmt.Sprintf("n=%d workers=%d exact", n, workers), want, ex.Out)
			for _, engine := range indexEngines {
				got := Reconstruct(in, Options{Engine: engine, Workers: workers})
				if got.Engine != engine {
					t.Fatalf("n=%d: engine %q reported %q", n, engine, got.Engine)
				}
				checkOracle(t, fmt.Sprintf("n=%d workers=%d %s", n, workers, engine), want, got.Out)
				if d := dist.TVD(ex.Out, got.Out); d > 1e-12 {
					t.Fatalf("n=%d workers=%d %s: engine TVD %v", n, workers, engine, d)
				}
				ex.Out.Range(func(x bitstr.Bits, p float64) {
					if diff := p - got.Out.Prob(x); diff > 1e-12 || diff < -1e-12 {
						t.Fatalf("n=%d %s: outcome %b differs: %v vs %v", n, engine, x, p, got.Out.Prob(x))
					}
				})
				for k := range ex.GlobalCHS {
					if !almostEq(ex.GlobalCHS[k], got.GlobalCHS[k], 1e-9) {
						t.Fatalf("n=%d %s: CHS[%d] %v vs %v", n, engine, k, ex.GlobalCHS[k], got.GlobalCHS[k])
					}
				}
				if a, b := ex.Out.MostProbable(), got.Out.MostProbable(); a != b {
					t.Fatalf("n=%d workers=%d %s: top-1 differs: %b vs %b", n, workers, engine, a, b)
				}
			}
		}
	}
}

// TestEnginesAgreeAcrossOptions sweeps the option surface the engines must
// agree under: explicit radii, every weight scheme, the filter ablation
// (which exercises the blocked engine's slab path), and TopM truncation,
// once with the M-th and (M+1)-th masses tied, so the tie order decides
// which of them joins the head. Every case is also pinned to the oracle.
func TestEnginesAgreeAcrossOptions(t *testing.T) {
	in := goldenDist(12, 9)
	counts := countHist(12, 300, 9)
	b := dist.NewBuilder(12)
	for _, x := range slices.Sorted(maps.Keys(counts)) {
		b.Add(x, counts[x])
	}
	tied := b.Dist().Normalize()
	top := tied.TopK(tied.Len())
	tieM := 40
	for tieM < len(top) && top[tieM-1].P != top[tieM].P {
		tieM++
	}
	if tieM == len(top) {
		t.Fatal("test premise broken: no two adjacent ranks past 40 tie")
	}
	cases := []struct {
		in   *dist.Dist
		opts Options
	}{
		{in, Options{Radius: 1}},
		{in, Options{Radius: 3}},
		{in, Options{Radius: 12}},
		{in, Options{Weights: UniformWeight}},
		{in, Options{Weights: ExpDecay, Radius: 5}},
		{in, Options{DisableFilter: true, Workers: 1}},
		{in, Options{DisableFilter: true, Workers: 8}},
		{in, Options{TopM: 40}},
		{in, Options{TopM: 40, DisableFilter: true, Workers: 4}},
		{tied, Options{TopM: tieM}},
	}
	for i, c := range cases {
		opts := c.opts
		exOpts := opts
		exOpts.Engine = EngineExact
		ex := Reconstruct(c.in, exOpts)
		want := oracleOf(histOf(c.in), opts)
		checkOracle(t, fmt.Sprintf("case %d exact", i), want, ex.Out)
		for _, engine := range indexEngines {
			ixOpts := opts
			ixOpts.Engine = engine
			got := Reconstruct(c.in, ixOpts)
			checkOracle(t, fmt.Sprintf("case %d %s", i, engine), want, got.Out)
			if d := dist.TVD(ex.Out, got.Out); d > 1e-12 {
				t.Fatalf("case %d (%+v) %s: engine TVD %v", i, opts, engine, d)
			}
			if a, b := ex.Out.MostProbable(), got.Out.MostProbable(); a != b {
				t.Fatalf("case %d (%+v) %s: top-1 differs: %b vs %b", i, opts, engine, a, b)
			}
		}
	}
}

// TestEnginesAgreeWideTopM extends the cross-engine goldens past width 16
// with TopM truncation active: at 20 and 22 bits the support far exceeds the
// cap, so most outcomes take the tail-scoring path (L(x) = Pr(x)²) — both
// engines must agree there too, and the truncated tail must score exactly as
// isolated.
func TestEnginesAgreeWideTopM(t *testing.T) {
	for _, n := range []int{20, 22} {
		in := goldenDist(n, int64(1000+n))
		topM := 64
		if in.Len() <= topM {
			t.Fatalf("test premise broken: support %d <= TopM %d", in.Len(), topM)
		}
		ex := Reconstruct(in, Options{Engine: EngineExact, TopM: topM})
		for _, engine := range indexEngines {
			got := Reconstruct(in, Options{Engine: engine, TopM: topM, Workers: 4})
			if d := dist.TVD(ex.Out, got.Out); d > 1e-12 {
				t.Fatalf("n=%d %s: engine TVD %v under TopM", n, engine, d)
			}
			if a, b := ex.Out.MostProbable(), got.Out.MostProbable(); a != b {
				t.Fatalf("n=%d %s: top-1 differs: %b vs %b", n, engine, a, b)
			}
		}
		// Tail pin: an outcome outside the top-M scores as isolated, so its
		// reconstructed mass is Pr(x)²/Z — the ratio of two tail outcomes'
		// reconstructions equals the squared ratio of their inputs.
		top := in.TopK(in.Len())
		tail := top[topM:]
		var x, y dist.Entry
		found := false
		for i := 0; i < len(tail) && !found; i++ {
			for j := i + 1; j < len(tail); j++ {
				if tail[i].P > 0 && tail[j].P > 0 && tail[i].P != tail[j].P {
					x, y, found = tail[i], tail[j], true
					break
				}
			}
		}
		if !found {
			t.Fatalf("n=%d: no distinct positive tail pair", n)
		}
		got := ex.Out.Prob(x.X) / ex.Out.Prob(y.X)
		want := (x.P / y.P) * (x.P / y.P)
		if !almostEq(got/want, 1, 1e-9) {
			t.Fatalf("n=%d: tail ratio %v, want %v (L(x)=Pr(x)² violated)", n, got, want)
		}
	}
}

// TestEngineAutoSelection pins the cost-model auto rule: small supports take
// the exact reference loop and large supports the blocked engine, at the
// default radius and at tight radii alike (blocked switches to its block
// multi-index scan there by itself). Explicit pins always bypass the model,
// and the retired bucketed name pins blocked.
func TestEngineAutoSelection(t *testing.T) {
	small := goldenDist(4, 3) // support <= 16
	for _, name := range []string{"", EngineAuto} {
		if res := Reconstruct(small, Options{Engine: name}); res.Engine != EngineExact {
			t.Fatalf("engine %q on N=%d picked %q", name, small.Len(), res.Engine)
		}
	}
	large := goldenDist(12, 4)
	if large.Len() < 256 {
		t.Fatalf("test premise broken: large support %d", large.Len())
	}
	if res := Reconstruct(large, Options{}); res.Engine != EngineBlocked {
		t.Fatalf("auto on N=%d picked %q", large.Len(), res.Engine)
	}
	if res := Reconstruct(large, Options{Radius: 2}); res.Engine != EngineBlocked {
		t.Fatalf("auto on N=%d radius=2 picked %q", large.Len(), res.Engine)
	}
	// PredictCost must forecast the engine the session then actually runs —
	// the admission layer budgets by this agreement.
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, EngineBlocked},
		{Options{Radius: 2}, EngineBlocked},
		{Options{Engine: EngineExact}, EngineExact},
		{Options{Engine: EngineBucketed}, EngineBlocked},
	} {
		eng, d, ok := PredictCost(tc.opts, large.Len(), large.NumBits())
		if !ok || eng != tc.want || d <= 0 {
			t.Fatalf("PredictCost(%+v, N=%d) = %q, %v, %v; want %q",
				tc.opts, large.Len(), eng, d, ok, tc.want)
		}
	}
	// Pinning works in both directions regardless of size.
	if res := Reconstruct(large, Options{Engine: EngineExact}); res.Engine != EngineExact {
		t.Fatalf("pinned exact ran %q", res.Engine)
	}
	for _, engine := range []string{EngineBlocked, EngineBucketed} {
		if res := Reconstruct(small, Options{Engine: engine}); res.Engine != EngineBlocked {
			t.Fatalf("pinned %s ran %q", engine, res.Engine)
		}
	}
}

func TestEngineNames(t *testing.T) {
	// Auto leads, then the registered batch engines in sorted order. The
	// streaming-only incremental registration must not appear: it is not a
	// valid batch selection; nor may the retired bucketed alias.
	names := EngineNames()
	if len(names) != 3 || names[0] != EngineAuto || names[1] != EngineBlocked || names[2] != EngineExact {
		t.Fatalf("EngineNames = %v", names)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{EngineExact, EngineBlocked} {
		r, ok := Lookup(name)
		if !ok || r.Engine == nil || r.Name != name {
			t.Errorf("Lookup(%q) = %+v, %v", name, r, ok)
		}
	}
	r, ok := Lookup(EngineIncremental)
	if !ok || r.Engine != nil {
		t.Errorf("Lookup(incremental) = %+v, %v", r, ok)
	}
	if _, ok := Lookup("fpga"); ok {
		t.Error("unknown engine resolved")
	}
	// Auto is a policy, not an engine; the retired bucketed name is an
	// alias resolved by name validation, not an engine either.
	for _, name := range []string{EngineAuto, EngineBucketed} {
		if _, ok := Lookup(name); ok {
			t.Errorf("%s is an engine", name)
		}
	}
	for _, name := range []string{"", EngineAuto, EngineExact, EngineBucketed, EngineBlocked} {
		if err := ValidateEngine(name); err != nil {
			t.Errorf("ValidateEngine(%q) = %v", name, err)
		}
	}
	if err := ValidateEngine("fpga"); err == nil {
		t.Error("unknown engine validated")
	} else if !strings.Contains(err.Error(), EngineBlocked) {
		t.Errorf("unknown-engine error does not list blocked: %v", err)
	}
	// Streaming-only engines are invalid batch selections, with a
	// distinguishable message.
	if err := ValidateEngine(EngineIncremental); err == nil {
		t.Error("streaming-only engine validated for batch")
	} else if !strings.Contains(err.Error(), "streaming-only") {
		t.Errorf("incremental rejection reads %q", err)
	}
}

func TestUnknownEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Reconstruct(fig4Example(), Options{Engine: "quantum-annealer"})
}

// TestWorkerCountInvariance: the index engines' row-ownership
// parallelization must give the same result for any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	in := goldenDist(14, 77)
	for _, engine := range indexEngines {
		ref := Reconstruct(in, Options{Engine: engine, Workers: 1})
		for _, w := range []int{2, 3, 8, 32} {
			got := Reconstruct(in, Options{Engine: engine, Workers: w})
			if d := dist.TVD(ref.Out, got.Out); d > 1e-12 {
				t.Fatalf("%s workers=%d: TVD %v from single-threaded", engine, w, d)
			}
		}
	}
}
