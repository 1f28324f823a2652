package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// testDist builds a deterministic clustered histogram over n bits.
func testDist(n int, seed int64) *dist.Dist {
	rng := rand.New(rand.NewSource(seed))
	b := dist.NewBuilder(n)
	key := bitstr.Bits(rng.Intn(1 << uint(n)))
	b.Add(key, 0.1+0.1*rng.Float64())
	for i := 0; i < n; i++ {
		b.Add(bitstr.Flip(key, i), 0.01+0.03*rng.Float64())
	}
	for i := 0; i < 60; i++ {
		b.Add(bitstr.Bits(rng.Intn(1<<uint(n))), 0.002*rng.Float64())
	}
	return b.Dist().Normalize()
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(Config{Opts: core.Options{Engine: "fpga"}}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := New(Config{Opts: core.Options{Radius: -1}}); err == nil {
		t.Error("negative radius accepted")
	}
	s, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 3 {
		t.Errorf("Workers() = %d", s.Workers())
	}
	if s.Options().Workers != 1 {
		t.Errorf("per-request workers default = %d, want 1", s.Options().Workers)
	}
	if auto, err := New(Config{}); err != nil || auto.Workers() < 1 {
		t.Errorf("default workers = %v, %v", auto, err)
	}
}

// TestBatchMatchesSerial pins the scheduler's core contract: results land at
// their request's index and are bit-identical to serial one-shot
// reconstructions of the same inputs.
func TestBatchMatchesSerial(t *testing.T) {
	const n = 24
	ins := make([]*dist.Dist, n)
	for i := range ins {
		ins[i] = testDist(10+i%4, int64(i))
	}
	for _, workers := range []int{1, 2, 8} {
		s, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*dist.Dist, n)
		err = s.Batch(context.Background(), n,
			func(i int) (Request, error) { return Request{In: ins[i]}, nil },
			func(i int, r *core.Result) error {
				got[i] = r.Out.Clone() // session-owned: copy before release
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ins {
			want := core.Reconstruct(ins[i], core.Options{Workers: 1})
			if got[i] == nil {
				t.Fatalf("workers=%d: request %d unserved", workers, i)
			}
			if d := dist.TVD(got[i], want.Out); d != 0 {
				t.Fatalf("workers=%d: request %d diverges from serial, TVD %v", workers, i, d)
			}
		}
	}
}

func TestBatchFailFast(t *testing.T) {
	const n = 50
	const bad = 7
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	err = s.Batch(context.Background(), n,
		func(i int) (Request, error) {
			if i == bad {
				return Request{}, fmt.Errorf("synthetic conversion failure")
			}
			return Request{In: testDist(10, int64(i))}, nil
		},
		func(i int, r *core.Result) error {
			served.Add(1)
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("request %d", bad)) {
		t.Fatalf("err = %v, want request %d failure", err, bad)
	}
	if got := served.Load(); got == n-1 {
		t.Errorf("fail-fast did not stop the batch: %d/%d served", got, n-1)
	}
}

func TestBatchConsumeErrorFailsFast(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("consumer rejected")
	err = s.Batch(context.Background(), 10,
		func(i int) (Request, error) { return Request{In: testDist(10, int64(i))}, nil },
		func(i int, r *core.Result) error {
			if i == 3 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestBatchEmptyInputError(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Batch(context.Background(), 3,
		func(i int) (Request, error) {
			if i == 1 {
				return Request{In: dist.NewBuilder(4).Dist()}, nil // empty support: session rejects
			}
			return Request{In: testDist(8, int64(i))}, nil
		},
		func(int, *core.Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "request 1") {
		t.Fatalf("err = %v", err)
	}
}

// TestBatchOwnDeadlineErrorIsGenuine: a context error returned by a callback
// while the batch context is still live (e.g. a source's own I/O deadline) is
// a real failure and must be reported, never classed as cancellation fallout
// — otherwise the request goes silently unserved under a nil batch error.
func TestBatchOwnDeadlineErrorIsGenuine(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Batch(context.Background(), 4,
		func(i int) (Request, error) {
			if i == 2 {
				return Request{}, fmt.Errorf("fetching histogram: %w", context.DeadlineExceeded)
			}
			return Request{In: testDist(10, int64(i))}, nil
		},
		func(int, *core.Result) error { return nil })
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Fatalf("err = %v, want BatchError for request 2", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestBatchParentCancellation(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.Batch(ctx, 5,
		func(i int) (Request, error) { return Request{In: testDist(10, int64(i))}, nil },
		func(int, *core.Result) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBatchZeroRequests(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Batch(context.Background(), 0, nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestReconstructSingle(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := testDist(12, 9)
	want := core.Reconstruct(in, core.Options{Workers: 1})
	var got *dist.Dist
	if err := s.Reconstruct(context.Background(), Request{In: in}, func(r *core.Result) error {
		got = r.Out.Clone()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if d := dist.TVD(got, want.Out); d != 0 {
		t.Errorf("pooled single request diverges, TVD %v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Reconstruct(ctx, Request{In: in}, func(*core.Result) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled single request: %v", err)
	}
}

// TestSharedBudget exercises concurrent single requests and batches against
// one scheduler — the serve workload — under the race detector.
func TestSharedBudget(t *testing.T) {
	s, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if g%2 == 0 {
					if err := s.Reconstruct(context.Background(), Request{In: testDist(10, int64(g*10+k))},
						func(r *core.Result) error { return nil }); err != nil {
						errs <- err
					}
				} else {
					if err := s.Batch(context.Background(), 6,
						func(i int) (Request, error) { return Request{In: testDist(10, int64(i))}, nil },
						func(i int, r *core.Result) error { return nil }); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReconstructOverride pins the per-request option path: a pooled session
// serves alternating configurations (reconfigured in place, never errored),
// each result matching a serial reconstruction under the same options.
func TestReconstructOverride(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := testDist(12, 3)
	overrides := []*core.Options{
		nil, // scheduler default
		{Radius: 2, Workers: 1},
		{Engine: core.EngineExact, Workers: 1},
		nil, // back to default on the same pooled session
		{Radius: 3, TopM: 20, Workers: 1},
	}
	for k, opts := range overrides {
		wantOpts := core.Options{Workers: 1}
		if opts != nil {
			wantOpts = *opts
		}
		want := core.Reconstruct(in, wantOpts)
		var got *dist.Dist
		var gotEngine string
		var gotRadius int
		err := s.Reconstruct(context.Background(), Request{In: in, Opts: opts},
			func(r *core.Result) error {
				got = r.Out.Clone()
				gotEngine, gotRadius = r.Engine, r.Radius
				return nil
			})
		if err != nil {
			t.Fatalf("request %d (opts %+v): %v", k, opts, err)
		}
		if d := dist.TVD(got, want.Out); d != 0 {
			t.Errorf("request %d diverges from serial under same options, TVD %v", k, d)
		}
		if gotEngine != want.Engine || gotRadius != want.Radius {
			t.Errorf("request %d metadata (%s, %d), want (%s, %d)",
				k, gotEngine, gotRadius, want.Engine, want.Radius)
		}
	}
}

// TestOverrideIgnoresWorkers: per-request options cannot raise intra-request
// parallelism past the scheduler's own setting.
func TestOverrideIgnoresWorkers(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eff := s.effective(&core.Options{Radius: 2, Workers: 64})
	if eff.Workers != 1 {
		t.Errorf("effective workers = %d, want scheduler's 1", eff.Workers)
	}
	if eff.Radius != 2 {
		t.Errorf("radius override lost: %d", eff.Radius)
	}
}

func TestReconstructOverrideInvalid(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := testDist(10, 1)
	bad := &core.Options{Engine: "fpga"}
	err = s.Reconstruct(context.Background(), Request{In: in, Opts: bad},
		func(*core.Result) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("invalid override: %v", err)
	}
	// The pooled session must remain usable for default requests afterwards.
	if err := s.Reconstruct(context.Background(), Request{In: in},
		func(*core.Result) error { return nil }); err != nil {
		t.Fatalf("session poisoned by rejected override: %v", err)
	}
}

// TestBatchMixedOverrides runs a batch whose members carry different
// per-request options through a small worker pool, so single sessions serve
// several configurations in sequence.
func TestBatchMixedOverrides(t *testing.T) {
	const n = 20
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]*dist.Dist, n)
	opts := make([]*core.Options, n)
	for i := range ins {
		ins[i] = testDist(10+i%3, int64(i))
		switch i % 4 {
		case 1:
			opts[i] = &core.Options{Radius: 2, Workers: 1}
		case 2:
			opts[i] = &core.Options{Engine: core.EngineBucketed, Workers: 1}
		case 3:
			opts[i] = &core.Options{TopM: 30, Workers: 1}
		}
	}
	got := make([]*dist.Dist, n)
	err = s.Batch(context.Background(), n,
		func(i int) (Request, error) { return Request{In: ins[i], Opts: opts[i]}, nil },
		func(i int, r *core.Result) error {
			got[i] = r.Out.Clone()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		wantOpts := core.Options{Workers: 1}
		if opts[i] != nil {
			wantOpts = *opts[i]
		}
		want := core.Reconstruct(ins[i], wantOpts)
		if d := dist.TVD(got[i], want.Out); d != 0 {
			t.Errorf("request %d diverges under override %+v, TVD %v", i, opts[i], d)
		}
	}
}

func TestDo(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := s.Do(context.Background(), func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Do: ran=%v err=%v", ran, err)
	}
	sentinel := errors.New("boom")
	if err := s.Do(context.Background(), func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Do error = %v", err)
	}
	// Do draws from the same budget: with the single slot held, a canceled
	// context must abort the wait rather than deadlock.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = s.Do(context.Background(), func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Do(ctx, func() error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("Do under full budget with canceled ctx: %v", err)
	}
	close(release)
}

// TestMetrics pins the instrumentation contract: every slot path reports
// through the one Metrics set, gauges return to zero when the scheduler
// drains, and wait/run latencies are observed once per served request.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := &Metrics{
		QueueDepth:  reg.Gauge("queue", "x"),
		InFlight:    reg.Gauge("inflight", "x"),
		WaitSeconds: reg.Histogram("wait_seconds", "x", obs.LatencyBuckets),
		RunSeconds:  reg.Histogram("run_seconds", "x", obs.LatencyBuckets),
	}
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(m)

	in := testDist(10, 7)
	served := 0
	if err := s.Reconstruct(context.Background(), Request{In: in}, func(*core.Result) error { served++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Do(context.Background(), func() error { served++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Batch(context.Background(), 3,
		func(i int) (Request, error) { return Request{In: in}, nil },
		func(i int, r *core.Result) error { served++; return nil }); err != nil {
		t.Fatal(err)
	}
	if served != 5 {
		t.Fatalf("served %d", served)
	}
	if got := m.WaitSeconds.Count(); got != 5 {
		t.Errorf("wait observations = %d, want 5", got)
	}
	if got := m.RunSeconds.Count(); got != 5 {
		t.Errorf("run observations = %d, want 5", got)
	}
	if m.QueueDepth.Value() != 0 || m.InFlight.Value() != 0 {
		t.Errorf("drained scheduler: queue=%d inflight=%d, want 0, 0",
			m.QueueDepth.Value(), m.InFlight.Value())
	}

	// While a request holds the only slot, in-flight reads 1 and a second
	// request waits in the queue; a canceled waiter restores the queue gauge.
	release := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = s.Do(context.Background(), func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	if m.InFlight.Value() != 1 {
		t.Errorf("inflight = %d while slot held", m.InFlight.Value())
	}
	waiting := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		close(waiting)
		if err := s.Do(ctx, func() error { return nil }); !errors.Is(err, context.Canceled) {
			t.Errorf("waiter error = %v", err)
		}
	}()
	<-waiting
	// The waiter increments the queue gauge before selecting on the
	// semaphore; poll briefly for it to arrive rather than sleeping blind.
	deadline := time.Now().Add(2 * time.Second)
	for m.QueueDepth.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.QueueDepth.Value() != 1 {
		t.Errorf("queue depth = %d with one waiter", m.QueueDepth.Value())
	}
	cancel()
	for m.QueueDepth.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.QueueDepth.Value() != 0 {
		t.Errorf("queue depth = %d after waiter canceled", m.QueueDepth.Value())
	}
	close(release)
	for m.InFlight.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.InFlight.Value() != 0 {
		t.Errorf("inflight = %d after drain", m.InFlight.Value())
	}
}

// An uninstrumented scheduler (nil Metrics) serves normally.
func TestMetricsNil(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Do(context.Background(), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}
