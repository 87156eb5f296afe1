package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSlowCallbackNoFireStorm is the regression test for the stale-now guard
// bug: Run compared the reprogrammed deadline against a now captured before
// the callback executed, so a callback slower than its own next interval
// reprogrammed into the past and spuriously re-fired immediately. With the
// fix, now is refreshed after the callback, the guard clamps the deadline
// forward, and exactly one fire happens per elapsed interval.
func TestSlowCallbackNoFireStorm(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(100, 0))
	l := NewLoop(clock)
	r := obs.NewRegistry()
	l.Instrument(r)
	l.RunAsync()
	defer l.Stop()

	var fires atomic.Int32
	if _, err := l.Add(time.Second, func(time.Time) time.Duration {
		// The first fire simulates a callback 5x slower than the interval it
		// asks for next.
		if fires.Add(1) == 1 {
			clock.Advance(5 * time.Second)
		}
		return time.Second
	}); err != nil {
		t.Fatal(err)
	}

	// Deliver the first tick: wait for the loop to arm a timer, then advance
	// one interval (repeating in case the arm raced the advance).
	for fires.Load() == 0 {
		waitFor(t, func() bool { return fires.Load() >= 1 || clock.PendingWaiters() >= 1 })
		if fires.Load() == 0 {
			clock.Advance(time.Second)
		}
	}

	// The loop must settle: one fire, then a fresh timer armed one interval
	// past the refreshed now (not a burst catching up to the stale now).
	// Pre-fix, the stale deadline re-armed in the past, so the loop kept
	// firing without any clock advance and never parked on a future
	// deadline with just one fire recorded.
	waitFor(t, func() bool {
		next, ok := clock.NextDeadline()
		return ok && next.After(clock.Now()) && fires.Load() >= 1
	})
	if got := fires.Load(); got != 1 {
		t.Fatalf("slow callback re-fired %d times, want exactly 1", got)
	}
	if got := l.Overdue(); got != 1 {
		t.Fatalf("Overdue = %d, want 1 (the clamped deadline)", got)
	}
	s := r.Snapshot()
	if s.Counter("sched_fires_total") != 1 || s.Counter("sched_overdue_fires_total") != 1 {
		t.Fatalf("obs counters = %v", s.Counters)
	}
	// The callback runtime histogram saw the 5s simulated execution.
	h := s.Histograms["sched_callback_seconds"]
	if h.Count != 1 || h.Sum < 4.9 {
		t.Fatalf("callback runtime histogram = %+v", h)
	}

	// After the clamp the loop keeps its cadence: the next tick fires once.
	for fires.Load() == 1 {
		waitFor(t, func() bool { return fires.Load() >= 2 || clock.PendingWaiters() >= 1 })
		if fires.Load() == 1 {
			clock.Advance(time.Second)
		}
	}
	waitFor(t, func() bool { return fires.Load() == 2 })
}
