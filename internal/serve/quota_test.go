package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLimiterRefillMath(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{RPS: 2, Burst: 2, Now: clock.now})
	// The full burst is available cold.
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	// Empty bucket: rejected, with the exact wait until one token accrues
	// (2 rps = 500ms per token).
	ok, retry := l.Allow("alice")
	if ok {
		t.Fatal("allowed past the burst")
	}
	if retry != 500*time.Millisecond {
		t.Errorf("retryAfter = %v, want 500ms", retry)
	}
	// Half a token is not a token.
	clock.advance(250 * time.Millisecond)
	if ok, retry := l.Allow("alice"); ok || retry != 250*time.Millisecond {
		t.Errorf("at half a token: ok=%v retry=%v", ok, retry)
	}
	// A full refill interval later, exactly one request fits.
	clock.advance(500 * time.Millisecond)
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("rejected after refill")
	}
	if ok, _ := l.Allow("alice"); ok {
		t.Fatal("second token materialized from nothing")
	}
	// Idling past burst/rps caps at the burst, not unbounded credit.
	clock.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("post-idle burst request %d rejected", i)
		}
	}
	if ok, _ := l.Allow("alice"); ok {
		t.Fatal("idle accrued more than the burst")
	}
}

func TestLimiterPerClientIsolation(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{RPS: 1, Burst: 1, Now: clock.now})
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("alice's first request rejected")
	}
	if ok, _ := l.Allow("alice"); ok {
		t.Fatal("alice's second request allowed")
	}
	// bob's bucket is untouched by alice's spending.
	if ok, _ := l.Allow("bob"); !ok {
		t.Fatal("bob throttled by alice's traffic")
	}
	if len(l.buckets) != 2 {
		t.Errorf("%d client buckets, want 2", len(l.buckets))
	}
}

func TestLimiterBurstDefault(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	// Burst 0 defaults to ceil(RPS): 2.5 rps -> 3 back-to-back.
	l := NewLimiter(LimiterConfig{RPS: 2.5, Now: clock.now})
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.Allow("c"); ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Errorf("default burst admitted %d, want 3", allowed)
	}
	// Sub-1 RPS still gets a whole token to start from.
	slow := NewLimiter(LimiterConfig{RPS: 0.1, Now: clock.now})
	if ok, _ := slow.Allow("c"); !ok {
		t.Error("sub-1 rps rejected its first request")
	}
	if ok, retry := slow.Allow("c"); ok || retry != 10*time.Second {
		t.Errorf("0.1 rps retry = %v, want 10s", retry)
	}
}

func TestLimiterDisabledAndNil(t *testing.T) {
	if NewLimiter(LimiterConfig{RPS: 0}) != nil {
		t.Fatal("zero RPS must return nil")
	}
	if NewLimiter(LimiterConfig{RPS: -1}) != nil {
		t.Fatal("negative RPS must return nil")
	}
	var l *Limiter
	for i := 0; i < 100; i++ {
		if ok, retry := l.Allow("anyone"); !ok || retry != 0 {
			t.Fatal("nil limiter rejected")
		}
	}
}

func TestLimiterBucketCapEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{RPS: 1, Burst: 1, Now: clock.now})
	for i := 0; i < maxLimiterBuckets; i++ {
		l.Allow(fmt.Sprintf("client-%d", i))
		clock.advance(time.Millisecond)
	}
	if len(l.buckets) != maxLimiterBuckets {
		t.Fatalf("%d client buckets, want %d", len(l.buckets), maxLimiterBuckets)
	}
	// One more client evicts the least recently touched bucket instead of
	// growing the map.
	l.Allow("one-more")
	if len(l.buckets) != maxLimiterBuckets {
		t.Errorf("%d client buckets after overflow, want %d", len(l.buckets), maxLimiterBuckets)
	}
	// The evicted client (client-0, oldest touch) starts over with a full
	// bucket — eviction errs toward admitting.
	if ok, _ := l.Allow("client-0"); !ok {
		t.Error("evicted client not readmitted fresh")
	}
}

func TestLimiterConcurrent(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{RPS: 5, Burst: 10, Now: clock.now})
	var wg sync.WaitGroup
	var mu sync.Mutex
	allowed, rejected := 0, 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ok, _ := l.Allow("shared")
				mu.Lock()
				if ok {
					allowed++
				} else {
					rejected++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// A frozen clock admits exactly the burst, no matter the interleaving.
	if allowed != 10 || rejected != 190 {
		t.Errorf("concurrent allows %d, rejects %d; want exactly the burst (10) and 190", allowed, rejected)
	}
}
