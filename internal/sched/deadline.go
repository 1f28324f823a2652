package sched

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Queue policies accepted by Config.Policy.
const (
	// PolicyFIFO grants worker slots in arrival order — the historical
	// behavior and the default.
	PolicyFIFO = "fifo"
	// PolicySPJF grants the waiting request with the shortest
	// model-predicted runtime first (shortest-predicted-job-first).
	// Mean latency drops on mixed workloads because small requests stop
	// queueing behind large ones; requests the model cannot predict rank
	// behind all predicted ones (unbudgeted work must not jump the queue),
	// and ties fall back to arrival order.
	PolicySPJF = "spjf"
)

// BudgetMS converts a deadline budget given in whole milliseconds on the
// wire into a duration. It saturates instead of wrapping: a budget past the
// largest time.Duration (about 292 years) becomes that duration, and one
// below the smallest becomes that, so no budget reads as a different one.
func BudgetMS(ms int64) time.Duration {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case ms > limit:
		return math.MaxInt64
	case ms < -limit:
		return math.MinInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// validatePolicy reports whether name is an accepted Config.Policy value
// (the empty string selects FIFO).
func validatePolicy(name string) error {
	switch name {
	case "", PolicyFIFO, PolicySPJF:
		return nil
	}
	return fmt.Errorf("unknown scheduling policy %q (want %q or %q)", name, PolicyFIFO, PolicySPJF)
}

// predUnknown is the queue rank of work without a model prediction: behind
// every predicted request, FIFO among themselves.
const predUnknown = math.MaxInt64

// DeadlineError reports that a request's deadline cannot be met. The
// scheduler raises it in two distinct shapes the serving layer maps to
// different statuses:
//
//   - Infeasible: the model-predicted runtime alone exceeds the time left
//     until the deadline — no amount of capacity helps, retrying is
//     pointless (HTTP 504 Gateway Timeout).
//   - Overloaded (Infeasible=false): the prediction fit, but a worker slot
//     did not free up by deadline−predicted, the last instant the work
//     could still start and finish in time. The request was rejected while
//     still queued — the slot budget is untouched — and a retry against a
//     less loaded server can succeed (HTTP 429 Too Many Requests).
type DeadlineError struct {
	// Engine is the engine the prediction was made for.
	Engine string
	// Predicted is the model's runtime prediction for the request.
	Predicted time.Duration
	// Remaining is how much time was left until the deadline when the
	// request was rejected.
	Remaining time.Duration
	// Infeasible distinguishes cannot-ever-finish from not-this-time.
	Infeasible bool
}

func (e *DeadlineError) Error() string {
	if e.Infeasible {
		return fmt.Sprintf("sched: deadline infeasible: %s predicted to run %v, %v remaining",
			e.Engine, e.Predicted, e.Remaining)
	}
	return fmt.Sprintf("sched: deadline at risk: no worker slot by deadline−predicted (%s predicted %v, %v remaining)",
		e.Engine, e.Predicted, e.Remaining)
}

// semaphore is the scheduler's slot budget. Implementations differ only in
// which waiter a freed slot goes to; predNs is the model's runtime
// prediction in nanoseconds (predUnknown when the model has none).
type semaphore interface {
	acquire(ctx context.Context, predNs int64) error
	release()
	capacity() int
}

// fifoSem is the historical channel semaphore: slots grant in select order,
// which for a contended buffered channel is FIFO-ish arrival order.
type fifoSem chan struct{}

func (s fifoSem) acquire(ctx context.Context, _ int64) error {
	select {
	case s <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s fifoSem) release()      { <-s }
func (s fifoSem) capacity() int { return cap(s) }

// spjfSem grants freed slots to the waiter with the lowest predicted
// runtime (arrival order among equals). Waiters park on a buffered grant
// channel; a waiter that cancels after being granted hands the slot back,
// so cancellation — including deadline admission rejections — can never
// leak a slot (the fuzz suite pins this).
type spjfSem struct {
	mu   sync.Mutex
	free int
	size int
	seq  int64
	q    waiterQueue
}

func newSPJF(size int) *spjfSem { return &spjfSem{free: size, size: size} }

type waiter struct {
	ns    int64
	seq   int64
	grant chan struct{}
	index int // position in the heap; -1 once granted
}

type waiterQueue []*waiter

func (q waiterQueue) Len() int { return len(q) }
func (q waiterQueue) Less(i, j int) bool {
	if q[i].ns != q[j].ns {
		return q[i].ns < q[j].ns
	}
	return q[i].seq < q[j].seq
}
func (q waiterQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *waiterQueue) Push(x any) {
	w := x.(*waiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *waiterQueue) Pop() any {
	old := *q
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.index = -1
	*q = old[:len(old)-1]
	return w
}

func (s *spjfSem) acquire(ctx context.Context, predNs int64) error {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return nil
	}
	w := &waiter{ns: predNs, seq: s.seq, grant: make(chan struct{}, 1)}
	s.seq++
	heap.Push(&s.q, w)
	s.mu.Unlock()

	select {
	case <-w.grant:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.index >= 0 {
			// Still queued: withdraw. No slot was ever ours.
			heap.Remove(&s.q, w.index)
			s.mu.Unlock()
			return ctx.Err()
		}
		s.mu.Unlock()
		// Granted concurrently with the cancellation: the send into grant is
		// in flight or already buffered. Take the slot and hand it straight
		// back so it reaches the next waiter instead of leaking.
		<-w.grant
		s.release()
		return ctx.Err()
	}
}

func (s *spjfSem) release() {
	s.mu.Lock()
	if s.q.Len() > 0 {
		w := heap.Pop(&s.q).(*waiter)
		s.mu.Unlock()
		w.grant <- struct{}{}
		return
	}
	s.free++
	s.mu.Unlock()
}

func (s *spjfSem) capacity() int { return s.size }
