package sched

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestValidatePolicy(t *testing.T) {
	for _, ok := range []string{"", PolicyFIFO, PolicySPJF} {
		if err := validatePolicy(ok); err != nil {
			t.Errorf("validatePolicy(%q) = %v", ok, err)
		}
	}
	if err := validatePolicy("priority"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{Policy: "lifo"}); err == nil {
		t.Error("New accepted unknown policy")
	}
	s, err := New(Config{Policy: PolicySPJF, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy() != PolicySPJF || s.Workers() != 2 {
		t.Errorf("policy %q workers %d", s.Policy(), s.Workers())
	}
	if s, _ := New(Config{}); s.Policy() != PolicyFIFO {
		t.Errorf("default policy %q", s.Policy())
	}
}

// waitQueued blocks until the semaphore has at least n parked waiters.
func waitQueued(t *testing.T, sem *spjfSem, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sem.mu.Lock()
		queued := sem.q.Len()
		sem.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters queued", queued, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSPJFGrantOrder pins the queue discipline at the semaphore: a freed
// slot goes to the shortest predicted waiter, arrival order among equals,
// unpredicted work last.
func TestSPJFGrantOrder(t *testing.T) {
	sem := newSPJF(1)
	if err := sem.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	type tagged struct {
		ns  int64
		tag string
	}
	// Enqueued in this (arrival) order; granted in priority order.
	waiters := []tagged{
		{predUnknown, "unknown"},
		{300, "large"},
		{100, "small-first"},
		{100, "small-second"},
		{200, "medium"},
	}
	order := make(chan string, len(waiters))
	var wg sync.WaitGroup
	for i, w := range waiters {
		wg.Add(1)
		go func(w tagged) {
			defer wg.Done()
			if err := sem.acquire(context.Background(), w.ns); err != nil {
				t.Error(err)
				return
			}
			order <- w.tag
			sem.release()
		}(w)
		waitQueued(t, sem, i+1) // serialize arrivals so seq ties are fixed
	}

	sem.release() // cascade: each grantee records itself and frees the next
	wg.Wait()
	close(order)
	var got []string
	for tag := range order {
		got = append(got, tag)
	}
	want := []string{"small-first", "small-second", "medium", "large", "unknown"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
	// The cascade's final release left the slot free.
	if err := sem.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestSPJFCancelWhileQueued pins waiter withdrawal: a canceled waiter comes
// off the queue and the slot count is unchanged.
func TestSPJFCancelWhileQueued(t *testing.T) {
	sem := newSPJF(1)
	if err := sem.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- sem.acquire(ctx, 50) }()
	waitQueued(t, sem, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v", err)
	}
	sem.mu.Lock()
	queued, free := sem.q.Len(), sem.free
	sem.mu.Unlock()
	if queued != 0 || free != 0 {
		t.Fatalf("after withdrawal: %d queued, %d free", queued, free)
	}
	sem.release()
	if err := sem.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineInfeasible pins the 504 shape: a deadline the predicted run
// alone cannot meet is rejected immediately, before any slot is consumed.
func TestDeadlineInfeasible(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := testDist(14, 5)
	req := Request{In: in, Deadline: time.Now().Add(time.Nanosecond)}
	err = s.Reconstruct(context.Background(), req, func(*core.Result) error { return nil })
	var de *DeadlineError
	if !errors.As(err, &de) || !de.Infeasible {
		t.Fatalf("err = %v, want infeasible DeadlineError", err)
	}
	if de.Engine == "" || de.Predicted <= 0 {
		t.Fatalf("rejection lacks prediction detail: %+v", de)
	}
	if !strings.Contains(de.Error(), "infeasible") {
		t.Errorf("message %q", de.Error())
	}
	// A past deadline is infeasible too, and the slot budget is untouched.
	req.Deadline = time.Now().Add(-time.Second)
	if err := s.Reconstruct(context.Background(), req, func(*core.Result) error { return nil }); !errors.As(err, &de) || !de.Infeasible {
		t.Fatalf("past deadline: %v", err)
	}
	ok := Request{In: in, Deadline: time.Now().Add(time.Minute)}
	if err := s.Reconstruct(context.Background(), ok, func(*core.Result) error { return nil }); err != nil {
		t.Fatalf("feasible request after rejections: %v", err)
	}
}

// TestDeadlineOverloaded pins the 429 shape: a feasible prediction whose
// slot never frees in time is rejected as overloaded, without consuming or
// leaking a slot.
func TestDeadlineOverloaded(t *testing.T) {
	for _, policy := range []string{PolicyFIFO, PolicySPJF} {
		t.Run(policy, func(t *testing.T) {
			s, err := New(Config{Workers: 1, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{})
			unblock := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- s.Do(context.Background(), func() error {
					close(started)
					<-unblock
					return nil
				})
			}()
			<-started

			in := testDist(14, 5)
			req := Request{In: in, Deadline: time.Now().Add(50 * time.Millisecond)}
			err = s.Reconstruct(context.Background(), req, func(*core.Result) error { return nil })
			var de *DeadlineError
			if !errors.As(err, &de) || de.Infeasible {
				t.Fatalf("err = %v, want overloaded DeadlineError", err)
			}
			close(unblock)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// Slot came back: an undeadlined request is served.
			if err := s.Reconstruct(context.Background(), Request{In: in}, func(*core.Result) error { return nil }); err != nil {
				t.Fatalf("request after overload rejection: %v", err)
			}
		})
	}
}

// TestDeadlineCallerCancelWins pins that the caller's own context dying is
// reported as a context error, not dressed up as a deadline rejection.
func TestDeadlineCallerCancelWins(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	unblock := make(chan struct{})
	go s.Do(context.Background(), func() error { close(started); <-unblock; return nil })
	<-started
	defer close(unblock)

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	req := Request{In: testDist(14, 5), Deadline: time.Now().Add(time.Hour)}
	err = s.Reconstruct(ctx, req, func(*core.Result) error { return nil })
	var de *DeadlineError
	if errors.As(err, &de) {
		t.Fatalf("caller cancellation surfaced as DeadlineError: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCostMetrics pins the predicted-vs-actual instrumentation: served
// requests observe all three cost series labeled by engine, and deadline
// rejections count by reason. Batch members are served requests too: each
// is observed, and each is admitted against its own deadline.
func TestCostMetrics(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := &Metrics{
		PredictedSeconds: reg.HistogramVec("test_cost_predicted_seconds", "", obs.LatencyBuckets, "engine"),
		ActualSeconds:    reg.HistogramVec("test_cost_actual_seconds", "", obs.LatencyBuckets, "engine"),
		ErrorRatio:       reg.HistogramVec("test_cost_error_ratio", "", obs.RatioBuckets, "engine"),
		DeadlineRejected: reg.CounterVec("test_deadline_rejected_total", "", "reason"),
	}
	s.Instrument(m)

	in := testDist(14, 5)
	var engine string
	if err := s.Reconstruct(context.Background(), Request{In: in}, func(r *core.Result) error {
		engine = r.Engine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	req := Request{In: in, Deadline: time.Now().Add(-time.Second)}
	if err := s.Reconstruct(context.Background(), req, func(*core.Result) error { return nil }); err == nil {
		t.Fatal("past deadline served")
	}
	if got := m.DeadlineRejected.Value("infeasible"); got != 1 {
		t.Errorf("infeasible rejections = %d, want 1", got)
	}

	// Three served members, then a batch whose member 1 is already past
	// its deadline. One worker takes the members in order, so member 0 is
	// served before member 1 is rejected.
	if err := s.Batch(context.Background(), 3,
		func(int) (Request, error) { return Request{In: in}, nil },
		func(int, *core.Result) error { return nil }); err != nil {
		t.Fatal(err)
	}
	err = s.Batch(context.Background(), 2,
		func(i int) (Request, error) {
			if i == 1 {
				return req, nil
			}
			return Request{In: in}, nil
		},
		func(int, *core.Result) error { return nil })
	var be *BatchError
	var de *DeadlineError
	if !errors.As(err, &be) || be.Index != 1 || !errors.As(err, &de) || !de.Infeasible {
		t.Fatalf("batch err = %v, want an infeasible DeadlineError at index 1", err)
	}
	if got := m.DeadlineRejected.Value("infeasible"); got != 2 {
		t.Errorf("infeasible rejections = %d, want 2", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`test_cost_predicted_seconds_count{engine="` + engine + `"} 5`,
		`test_cost_actual_seconds_count{engine="` + engine + `"} 5`,
		`test_cost_error_ratio_count{engine="` + engine + `"} 5`,
		`test_deadline_rejected_total{reason="infeasible"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestBudgetMSSaturates pins the wire budget conversion at its edges: exact
// up to the largest whole-millisecond duration, and the nearest extreme
// duration past it, where the product would have wrapped.
func TestBudgetMSSaturates(t *testing.T) {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	for ms, want := range map[int64]time.Duration{
		0:                 0,
		1:                 time.Millisecond,
		-3:                -3 * time.Millisecond,
		limit:             time.Duration(limit) * time.Millisecond,
		limit + 1:         math.MaxInt64,
		18446744073710:    math.MaxInt64,
		70761710266749840: math.MaxInt64,
		math.MaxInt64:     math.MaxInt64,
		-limit:            -time.Duration(limit) * time.Millisecond,
		-limit - 1:        math.MinInt64,
		math.MinInt64:     math.MinInt64,
	} {
		if got := BudgetMS(ms); got != want {
			t.Errorf("BudgetMS(%d) = %v, want %v", ms, got, want)
		}
	}
}
