package shard

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// replicaHandler is a minimal in-test stripe server: decode, score on a
// fresh session, respond. The real handler lives in cmd/hammerctl; this one
// keeps the package test self-contained.
func replicaHandler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req StripeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec, err := req.Spec()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sess, err := core.NewSession(core.Options{Workers: 1})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		part, err := sess.ScoreStripe(r.Context(), spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(StripeResponse{Engine: core.EngineBlocked, CHS: part.CHS, Rows: part.Rows})
	})
}

// localFallback returns a Local executor that deep-copies each partial off a
// per-call session, counting invocations.
func localFallback(calls *atomic.Int64) func(context.Context, core.StripeSpec) (core.StripePartial, error) {
	return func(ctx context.Context, spec core.StripeSpec) (core.StripePartial, error) {
		if calls != nil {
			calls.Add(1)
		}
		sess, err := core.NewSession(core.Options{Workers: 1})
		if err != nil {
			return core.StripePartial{}, err
		}
		part, err := sess.ScoreStripe(ctx, spec)
		if err != nil {
			return core.StripePartial{}, err
		}
		return core.StripePartial{
			Lo:   part.Lo,
			Hi:   part.Hi,
			CHS:  append([]float64(nil), part.CHS...),
			Rows: append([]float64(nil), part.Rows...),
		}, nil
	}
}

func TestWireRoundTrip(t *testing.T) {
	in := dist.Synthetic(14, 300, 7)
	sess, err := core.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sess.ShardProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	spec.Lo, spec.Hi = 10, 200
	outs := FormatOuts(spec.Outs, spec.NumBits)
	body, err := json.Marshal(RequestFor(spec, outs, 1234*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	var req StripeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	got, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBits != spec.NumBits || got.MaxD != spec.MaxD || got.Lo != spec.Lo || got.Hi != spec.Hi {
		t.Fatalf("spec fields did not round-trip: got %+v", got)
	}
	if req.Budget() != 2*time.Millisecond {
		t.Fatalf("sub-millisecond budget rounded to %v, want 2ms", req.Budget())
	}
	// A budget whose nanoseconds overflow saturates instead of wrapping to
	// a few hundred microseconds.
	if huge := (&StripeRequest{BudgetMS: 18446744073710}).Budget(); huge != math.MaxInt64 {
		t.Fatalf("585-year budget read as %v", huge)
	}
	for i := range spec.Outs {
		if got.Outs[i] != spec.Outs[i] {
			t.Fatalf("outcome %d: %v != %v", i, got.Outs[i], spec.Outs[i])
		}
		if got.Probs[i] != spec.Probs[i] {
			t.Fatalf("probability %d not bit-identical: %v != %v", i, got.Probs[i], spec.Probs[i])
		}
	}
}

func TestSpecValidation(t *testing.T) {
	base := func() *StripeRequest {
		return &StripeRequest{
			Bits:  4,
			Outs:  []string{"0001", "0010", "0100"},
			Probs: []float64{0.2, 0.3, 0.5},
			MaxD:  1,
			Lo:    0,
			Hi:    3,
		}
	}
	cases := []struct {
		name    string
		mutate  func(*StripeRequest)
		wantErr string
	}{
		{"width zero", func(r *StripeRequest) { r.Bits = 0 }, "width"},
		{"width over max", func(r *StripeRequest) { r.Bits = 65 }, "width"},
		{"empty support", func(r *StripeRequest) { r.Outs = nil; r.Probs = nil }, "empty"},
		{"length mismatch", func(r *StripeRequest) { r.Probs = r.Probs[:2] }, "probabilities"},
		{"wrong outcome width", func(r *StripeRequest) { r.Outs[1] = "10" }, "characters"},
		{"bad character", func(r *StripeRequest) { r.Outs[1] = "00x0" }, "invalid character"},
		{"not ascending", func(r *StripeRequest) { r.Outs[2] = "0001" }, "ascending"},
		{"duplicate", func(r *StripeRequest) { r.Outs[1] = "0001" }, "ascending"},
	}
	for _, tc := range cases {
		r := base()
		tc.mutate(r)
		if _, err := r.Spec(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := base().Spec(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestCoordinatorMatchesSingleNode(t *testing.T) {
	srv1 := httptest.NewServer(replicaHandler(t))
	defer srv1.Close()
	srv2 := httptest.NewServer(replicaHandler(t))
	defer srv2.Close()

	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		{"blocked", core.Options{Engine: core.EngineBlocked}},
		{"bucketed radius", core.Options{Engine: core.EngineBucketed, Radius: 4}},
		{"topm", core.Options{TopM: 150}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := dist.Synthetic(14, 400, 11)
			coord, err := New(Config{
				Replicas: []string{srv1.URL, srv2.URL},
				Local:    localFallback(nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := core.NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := coord.Reconstruct(context.Background(), sess, in)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(sharded.Engine, "sharded:") {
				t.Fatalf("engine label %q lacks sharded: prefix", sharded.Engine)
			}
			shardedOut := sharded.Out.Clone()

			ref, err := core.NewSession(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			local, err := ref.Reconstruct(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if d := dist.TVD(shardedOut, local.Out); d > 1e-12 {
				t.Fatalf("sharded vs single-node TVD = %g, want <= 1e-12", d)
			}
		})
	}
}

func TestCoordinatorFallbackOnReplicaError(t *testing.T) {
	good := httptest.NewServer(replicaHandler(t))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "replica on fire", http.StatusInternalServerError)
	}))
	defer bad.Close()

	reg := obs.NewRegistry()
	fallbacks := reg.CounterVec("hammer_shard_fallback_total", "stripes recomputed locally", "reason")
	var calls atomic.Int64
	coord, err := New(Config{
		Replicas: []string{good.URL, bad.URL},
		Local:    localFallback(&calls),
		Metrics:  Metrics{Fallbacks: fallbacks},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := dist.Synthetic(13, 250, 3)
	sess, err := core.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Reconstruct(context.Background(), sess, in)
	if err != nil {
		t.Fatal(err)
	}
	resOut := res.Out.Clone()
	if calls.Load() == 0 {
		t.Fatal("no local fallback ran despite a failing replica")
	}
	if got := fallbacks.Value("error"); got != uint64(calls.Load()) {
		t.Fatalf("fallback counter = %d, want %d", got, calls.Load())
	}

	local := core.Reconstruct(in, core.Options{})
	if d := dist.TVD(resOut, local.Out); d > 1e-12 {
		t.Fatalf("degraded result TVD = %g, want <= 1e-12", d)
	}
}

// TestCoordinatorAllReplicasDown recomputes every stripe locally when no
// replica answers, one stripe at a time: the fallbacks run inside the one
// worker slot the sharded request holds, so at most one is ever in flight.
func TestCoordinatorAllReplicasDown(t *testing.T) {
	var replicas []string
	for i := 0; i < 4; i++ {
		dead := httptest.NewServer(replicaHandler(t))
		dead.Close() // connection refused from here on
		replicas = append(replicas, dead.URL)
	}
	var calls, inFlight, peak atomic.Int64
	fallback := localFallback(&calls)
	coord, err := New(Config{
		Replicas: replicas,
		Local: func(ctx context.Context, spec core.StripeSpec) (core.StripePartial, error) {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(5 * time.Millisecond) // long enough for concurrent calls to overlap
			return fallback(ctx, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := dist.Synthetic(12, 120, 5)
	sess, err := core.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Reconstruct(context.Background(), sess, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(dist.NewStripePlan(in.Len(), len(replicas)).Len()) {
		t.Fatalf("%d local stripes, want every stripe to fall back locally", got)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("%d local stripes in flight at once, want 1", got)
	}
	local := core.Reconstruct(in, core.Options{})
	if d := dist.TVD(res.Out, local.Out); d > 1e-12 {
		t.Fatalf("all-local result TVD = %g, want <= 1e-12", d)
	}
}

func TestCoordinatorDeadlineBudgetFallback(t *testing.T) {
	testDone := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-testDone:
		}
	}))
	defer slow.Close()
	defer close(testDone)

	reg := obs.NewRegistry()
	fallbacks := reg.CounterVec("hammer_shard_fallback_total", "", "reason")
	var calls atomic.Int64
	coord, err := New(Config{
		Replicas:         []string{slow.URL},
		Local:            localFallback(&calls),
		Metrics:          Metrics{Fallbacks: fallbacks},
		BudgetMultiplier: 1,
		BudgetFloor:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := dist.Synthetic(12, 100, 9)
	sess, err := core.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := coord.Reconstruct(context.Background(), sess, in)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline budget did not cut off the slow replica (took %v)", elapsed)
	}
	if fallbacks.Value("deadline") == 0 {
		t.Fatal("deadline fallback not counted")
	}
	local := core.Reconstruct(in, core.Options{})
	if d := dist.TVD(res.Out, local.Out); d > 1e-12 {
		t.Fatalf("fallback result TVD = %g, want <= 1e-12", d)
	}
}

func TestCoordinatorCancellation(t *testing.T) {
	srv := httptest.NewServer(replicaHandler(t))
	defer srv.Close()
	coord, err := New(Config{Replicas: []string{srv.URL}, Local: localFallback(nil)})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.Reconstruct(ctx, sess, dist.Synthetic(12, 100, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The session stays usable after a canceled sharded run.
	if _, err := coord.Reconstruct(context.Background(), sess, dist.Synthetic(12, 100, 1)); err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
}

func TestCoordinatorNotShardable(t *testing.T) {
	coord, err := New(Config{Replicas: []string{"localhost:0"}, Local: localFallback(nil)})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(core.Options{DisableFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Reconstruct(context.Background(), sess, dist.Synthetic(12, 50, 2)); !errors.Is(err, ErrNotShardable) {
		t.Fatalf("err = %v, want ErrNotShardable", err)
	}
}

func TestShouldShard(t *testing.T) {
	coord, err := New(Config{Replicas: []string{"a:1", "b:2"}, Local: localFallback(nil)})
	if err != nil {
		t.Fatal(err)
	}
	// The cost model makes small supports local and large ones sharded
	// (crossover pinned in internal/cost).
	if coord.ShouldShard(core.Options{}, 200, 20) {
		t.Fatal("sharded a 200-outcome support")
	}
	if !coord.ShouldShard(core.Options{}, 100_000, 20) {
		t.Fatal("did not shard a 100k-outcome support")
	}
	// Unshardable shapes never fan out, whatever the size.
	if coord.ShouldShard(core.Options{DisableFilter: true}, 100_000, 20) {
		t.Fatal("sharded a DisableFilter request")
	}
	if coord.ShouldShard(core.Options{Engine: core.EngineExact}, 100_000, 20) {
		t.Fatal("sharded an explicit exact pin")
	}

	// MinSupport replaces the model with a plain threshold.
	forced, err := New(Config{Replicas: []string{"a:1"}, Local: localFallback(nil), MinSupport: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !forced.ShouldShard(core.Options{}, 100, 20) {
		t.Fatal("MinSupport threshold not honored")
	}
	if forced.ShouldShard(core.Options{}, 99, 20) {
		t.Fatal("sharded below the MinSupport threshold")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Local: localFallback(nil)}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := New(Config{Replicas: []string{"a:1"}}); err == nil {
		t.Fatal("nil local executor accepted")
	}
	c, err := New(Config{Replicas: []string{"host:8080", "https://other/"}, Local: localFallback(nil)})
	if err != nil {
		t.Fatal(err)
	}
	got := c.replicas
	if got[0] != "http://host:8080" || got[1] != "https://other" {
		t.Fatalf("replica normalization: %v", got)
	}
}
