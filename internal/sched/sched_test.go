package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestLoopFiresOnce(t *testing.T) {
	l := NewLoop(nil)
	l.RunAsync()
	defer l.Stop()
	done := make(chan struct{})
	var once sync.Once
	if _, err := l.Add(time.Millisecond, func(time.Time) time.Duration {
		once.Do(func() { close(done) })
		return 0 // one-shot
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	waitFor(t, func() bool { return l.Pending() == 0 })
}

// waitFor spins (yielding, never sleeping) until cond holds; the wall-clock
// deadline is only a failure backstop, not synchronization.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never met")
}

// waitForDeadline spins until the loop has parked on the virtual clock with
// its earliest deadline at want — i.e. the previous fire is fully processed
// and the next advance will be observed. Deterministic replacement for
// "advance then sleep a little".
func waitForDeadline(t *testing.T, clock *sim.Virtual, want time.Time) {
	t.Helper()
	waitFor(t, func() bool {
		next, ok := clock.NextDeadline()
		return ok && next.Equal(want)
	})
}

func TestLoopRepeats(t *testing.T) {
	l := NewLoop(nil)
	l.RunAsync()
	defer l.Stop()
	var n atomic.Int32
	l.Add(time.Millisecond, func(time.Time) time.Duration {
		if n.Add(1) >= 5 {
			return 0
		}
		return time.Millisecond
	})
	waitFor(t, func() bool { return n.Load() >= 5 })
	if got := l.Fired(); got < 5 {
		t.Fatalf("Fired=%d", got)
	}
}

func TestAdaptiveIntervalReprogramming(t *testing.T) {
	// The callback returns a different interval each fire; verify virtual
	// fire times follow the re-programmed schedule exactly.
	clock := sim.NewVirtual(time.Unix(0, 0))
	l := NewLoop(clock)
	l.RunAsync()
	defer l.Stop()

	intervals := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	var mu sync.Mutex
	var fires []time.Time
	idx := 0
	l.Add(time.Second, func(now time.Time) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		fires = append(fires, now)
		if idx >= len(intervals) {
			return 0
		}
		d := intervals[idx]
		idx++
		return d
	})

	// Virtual fire times follow the reprogrammed intervals: 1, 1+1, 2+2,
	// 4+4 seconds. Advance deadline-by-deadline, waiting (sleep-free) for
	// the loop to park on the next one before moving the clock again.
	wantSecs := []int64{1, 2, 4, 8}
	for i, sec := range wantSecs {
		waitForDeadline(t, clock, time.Unix(sec, 0))
		clock.AdvanceTo(time.Unix(sec, 0))
		if i == len(wantSecs)-1 {
			waitFor(t, func() bool { return l.Pending() == 0 })
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fires) != len(wantSecs) {
		t.Fatalf("fires=%v", fires)
	}
	for i, f := range fires {
		if f.Unix() != wantSecs[i] {
			t.Fatalf("fire %d at %ds, want %ds", i, f.Unix(), wantSecs[i])
		}
	}
}

func TestCancel(t *testing.T) {
	l := NewLoop(nil)
	l.RunAsync()
	defer l.Stop()
	var n atomic.Int32
	id, _ := l.Add(time.Hour, func(time.Time) time.Duration { n.Add(1); return 0 })
	if !l.Cancel(id) {
		t.Fatal("Cancel returned false")
	}
	if l.Cancel(id) {
		t.Fatal("double Cancel returned true")
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending=%d", l.Pending())
	}
	if n.Load() != 0 {
		t.Fatal("cancelled timer fired")
	}
}

func TestAddAfterStop(t *testing.T) {
	l := NewLoop(nil)
	l.RunAsync()
	l.Stop()
	if _, err := l.Add(time.Millisecond, func(time.Time) time.Duration { return 0 }); err != ErrStopped {
		t.Fatalf("err=%v", err)
	}
	l.Stop() // idempotent
}

func TestManyTimersOrdering(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	l := NewLoop(clock)
	var mu sync.Mutex
	var order []int
	// Register every timer before the loop starts so the loop only ever
	// parks on the earliest pending deadline — each fire can then be
	// delivered with a deadline-synchronized advance, no sleeps.
	for i := 10; i >= 1; i-- {
		i := i
		l.Add(time.Duration(i)*time.Second, func(time.Time) time.Duration {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return 0
		})
	}
	l.RunAsync()
	defer l.Stop()
	for i := 1; i <= 10; i++ {
		waitForDeadline(t, clock, time.Unix(int64(i), 0))
		clock.AdvanceTo(time.Unix(int64(i), 0))
	}
	waitFor(t, func() bool { return l.Pending() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 10 {
		t.Fatalf("fired %d of 10: %v", len(order), order)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order=%v", order)
		}
	}
}

func TestSimClockAfterImmediate(t *testing.T) {
	c := sim.NewVirtual(time.Unix(100, 0))
	select {
	case ts := <-c.After(0):
		if ts.Unix() != 100 {
			t.Fatalf("ts=%v", ts)
		}
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestSimClockAdvancePartial(t *testing.T) {
	c := sim.NewVirtual(time.Unix(0, 0))
	ch := c.After(10 * time.Second)
	c.Advance(5 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	c.Advance(5 * time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("did not fire at due time")
	}
	if c.PendingWaiters() != 0 {
		t.Fatalf("PendingWaiters=%d", c.PendingWaiters())
	}
}

func BenchmarkLoopAddCancel(b *testing.B) {
	l := NewLoop(nil)
	l.RunAsync()
	defer l.Stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id, _ := l.Add(time.Hour, func(time.Time) time.Duration { return 0 })
		l.Cancel(id)
	}
}
