package gateway

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestTokenBucketRefill drives the limiter on a virtual clock: no wall
// sleeps, fully deterministic refill.
func TestTokenBucketRefill(t *testing.T) {
	clk := sim.NewVirtual(time.Unix(0, 0))
	l := newLimiter(clk, 1, 2) // 1 token/s, burst 2

	if _, ok := l.allow("alice"); !ok {
		t.Fatal("first request should pass (full bucket)")
	}
	if _, ok := l.allow("alice"); !ok {
		t.Fatal("second request should pass (burst)")
	}
	wait, ok := l.allow("alice")
	if ok {
		t.Fatal("third request should be limited")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint %v, want (0, 1s]", wait)
	}

	// Principals are independent buckets.
	if _, ok := l.allow("bob"); !ok {
		t.Fatal("bob has his own bucket")
	}

	// Half a token is not a token.
	clk.Advance(500 * time.Millisecond)
	if _, ok := l.allow("alice"); ok {
		t.Fatal("bucket refilled too fast")
	}
	// A full second accrues one token (the failed probe above must not
	// have spent anything).
	clk.Advance(500 * time.Millisecond)
	if _, ok := l.allow("alice"); !ok {
		t.Fatal("bucket should hold one token after 1s")
	}
	if _, ok := l.allow("alice"); ok {
		t.Fatal("token already spent")
	}

	// Refill caps at burst.
	clk.Advance(time.Hour)
	for i := 0; i < 2; i++ {
		if _, ok := l.allow("alice"); !ok {
			t.Fatalf("request %d should pass after refill to burst", i)
		}
	}
	if _, ok := l.allow("alice"); ok {
		t.Fatal("burst cap exceeded")
	}

	if got := len(l.buckets); got != 2 {
		t.Fatalf("principals = %d, want 2", got)
	}
}

// TestRateDisabled checks a negative rate turns limiting off.
func TestRateDisabled(t *testing.T) {
	l := newLimiter(sim.NewVirtual(time.Unix(0, 0)), -1, 1)
	for i := 0; i < 100; i++ {
		if _, ok := l.allow("p"); !ok {
			t.Fatal("disabled limiter must always allow")
		}
	}
}
