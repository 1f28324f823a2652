package serve

import (
	"math"
	"sync"
	"time"
)

// maxLimiterBuckets bounds the limiter's per-client state so an attacker
// rotating client ids cannot grow the map without bound. At the cap, the
// least recently touched bucket is evicted — that client simply starts over
// with a full bucket, which errs toward admitting, never toward a spurious
// reject.
const maxLimiterBuckets = 4096

// LimiterConfig assembles a Limiter.
type LimiterConfig struct {
	// RPS is the steady-state request rate each client may sustain. Zero or
	// negative disables rate limiting (NewLimiter returns nil).
	RPS float64
	// Burst is the bucket capacity — how many requests a client may issue
	// back-to-back after an idle stretch (0 = max(1, ceil(RPS))).
	Burst int
	// Now overrides the clock, for tests. Nil means time.Now.
	Now func() time.Time
}

// bucket is one client's token-bucket state, guarded by Limiter.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

// Limiter applies a per-client token-bucket rate limit: each client id gets
// its own bucket holding up to Burst tokens, refilled continuously at RPS
// tokens per second; a request spends one token, and an empty bucket means
// the request is rejected with the wait until a token accrues. A nil
// *Limiter — the "no rate limit" configuration — admits everything. Safe for
// concurrent use.
type Limiter struct {
	rps   float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

// NewLimiter returns a per-client token-bucket limiter. A non-positive RPS
// returns nil — the disabled limiter.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.RPS <= 0 {
		return nil
	}
	burst := float64(cfg.Burst)
	if cfg.Burst <= 0 {
		burst = math.Max(1, math.Ceil(cfg.RPS))
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Limiter{
		rps:     cfg.RPS,
		burst:   burst,
		now:     now,
		buckets: make(map[string]*bucket),
	}
}

// Allow spends one token from client's bucket. When the bucket is empty it
// returns false and how long until the next token accrues — the Retry-After
// the HTTP layer reports. A nil Limiter always allows.
func (l *Limiter) Allow(client string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, exists := l.buckets[client]
	if !exists {
		if len(l.buckets) >= maxLimiterBuckets {
			l.evictOldestLocked()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens = math.Min(l.burst, b.tokens+elapsed*l.rps)
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Time until the deficit refills to one whole token.
	return false, time.Duration((1 - b.tokens) / l.rps * float64(time.Second))
}

// evictOldestLocked drops the least recently touched bucket. Linear scan —
// it only runs on an insert at the cap, never on the steady-state hit path.
func (l *Limiter) evictOldestLocked() {
	var (
		oldestKey string
		oldest    time.Time
		first     = true
	)
	for k, b := range l.buckets {
		if first || b.last.Before(oldest) {
			oldestKey, oldest, first = k, b.last, false
		}
	}
	delete(l.buckets, oldestKey)
}
