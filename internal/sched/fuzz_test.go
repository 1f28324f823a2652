package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzDeadline hammers deadline admission with arbitrary (including past
// and immediately-expiring) deadlines under contention, on both queue
// policies, and then proves the invariant the serving layer depends on:
// however the requests were rejected, canceled, or served, every worker
// slot is reacquirable afterwards — deadline handling can never leak a
// semaphore slot. Half the requests arrive as single requests and half as
// the members of one Batch, racing each other for the same slots.
func FuzzDeadline(f *testing.F) {
	f.Add(uint8(1), int16(0), int16(50), true)
	f.Add(uint8(2), int16(-100), int16(0), false)
	f.Add(uint8(3), int16(500), int16(200), true)
	f.Add(uint8(4), int16(32767), int16(-1), false)
	in := testDist(12, 7)

	f.Fuzz(func(t *testing.T, workersRaw uint8, deadlineMicro, skewMicro int16, spjf bool) {
		workers := int(workersRaw)%3 + 1
		policy := PolicyFIFO
		if spjf {
			policy = PolicySPJF
		}
		s, err := New(Config{Workers: workers, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}

		const requests = 12
		reqs := make([]Request, requests)
		for i := range reqs {
			// Spread deadlines around the fuzzed base so expired, hair-
			// trigger, and comfortable deadlines race each other for slots.
			offset := time.Duration(deadlineMicro)*time.Microsecond +
				time.Duration(i)*time.Duration(skewMicro)*time.Microsecond
			reqs[i] = Request{In: in, Deadline: time.Now().Add(offset)}
		}
		// One undeadlined request in each half of the mix.
		reqs[requests/2-1].Deadline = time.Time{}
		reqs[requests-1].Deadline = time.Time{}
		// Errors (deadline rejections, timeouts) are expected; the
		// invariant under test is slot accounting, not success.
		var wg sync.WaitGroup
		for _, req := range reqs[:requests/2] {
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				_ = s.Reconstruct(context.Background(), req, func(*core.Result) error { return nil })
			}(req)
		}
		members := reqs[requests/2:]
		_ = s.Batch(context.Background(), len(members),
			func(i int) (Request, error) { return members[i], nil },
			func(int, *core.Result) error { return nil })
		wg.Wait()

		// Every slot must be free again: acquire the full budget without
		// contention, with a timeout so a leak fails loudly instead of
		// hanging the fuzzer.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for i := 0; i < workers; i++ {
			if _, err := s.acquire(ctx, predUnknown); err != nil {
				t.Fatalf("slot %d/%d not reacquirable after deadline traffic: %v", i+1, workers, err)
			}
		}
	})
}
