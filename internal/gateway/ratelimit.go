package gateway

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// limiter rate-limits requests per principal with lazy token buckets: each
// bucket holds up to burst tokens, refilling at rate tokens/second of clock
// time. Refill is computed on demand from elapsed clock time — no background
// goroutine — so under a *sim.Virtual clock the refill schedule is exactly
// as deterministic as the test that advances it.
type limiter struct {
	clock sim.Clock
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(clock sim.Clock, rate float64, burst int) *limiter {
	return &limiter{
		clock:   clock,
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from principal's bucket. When the bucket is empty
// it reports false plus how long until the next token accrues (the
// Retry-After hint). A non-positive rate disables limiting entirely.
func (l *limiter) allow(principal string) (wait time.Duration, ok bool) {
	if l.rate <= 0 {
		return 0, true
	}
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[principal]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[principal] = b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = min(b.tokens+dt.Seconds()*l.rate, l.burst)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	need := 1 - b.tokens
	return time.Duration(need / l.rate * float64(time.Second)), false
}
