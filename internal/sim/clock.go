// Package sim is Apollo's deterministic simulation layer: an injectable
// Clock abstraction (wall and virtual implementations) plus seeded fault
// schedules (schedule.go) that let the whole Fact -> Delphi -> Insight ->
// archive -> query pipeline run on virtual time. Time- and failure-dependent
// behavior — AIMD interval adaptation (§3.4.1), DAG propagation (§3.2),
// reconnect backoff, store-and-forward recovery — becomes replayable from a
// single seed instead of racing wall clocks, the same reason related storage
// failure-detection work validates against a simulator rather than live
// hardware.
//
// sim sits below every other internal package (it imports only the standard
// library): stream, score, and ldms accept a sim.Clock, and
// sim/scenario composes them into end-to-end virtual-time scenarios.
package sim

import (
	"sync"
	"time"
)

// Clock abstracts time for the pipeline. Wall is the production
// implementation; Virtual is manually advanced for deterministic tests and
// replay.
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
	// After returns a channel that delivers one tick after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a re-armable timer, mirroring time.NewTimer.
	NewTimer(d time.Duration) *Timer
}

// Timer mirrors time.Timer across wall and virtual clocks: C delivers at
// most one tick per arming, Stop and Reset follow time.Timer semantics.
type Timer struct {
	C    <-chan time.Time
	impl timerImpl
}

type timerImpl interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Stop disarms the timer, reporting whether it was still pending. It does
// not drain C; use the usual Stop-then-drain idiom.
func (t *Timer) Stop() bool { return t.impl.Stop() }

// Reset re-arms the timer to fire after d, reporting whether it was still
// pending. Like time.Timer.Reset it should only be called on stopped or
// fired timers with a drained channel.
func (t *Timer) Reset(d time.Duration) bool { return t.impl.Reset(d) }

// Wall is the wall-clock Clock used in production.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Wall) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, impl: wallTimer{t}}
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Stop() bool                 { return w.t.Stop() }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

// Or returns c, or Wall when c is nil — the idiom every config that embeds
// an optional Clock uses to default.
func Or(c Clock) Clock {
	if c == nil {
		return Wall{}
	}
	return c
}

// Every runs fn on its own goroutine every d on clock, each pass d after the
// previous one ends, until the returned stop is called. stop waits for a pass
// in flight, and is idempotent. It is the loop behind the background
// maintenance of the archive compactor, the model trainer and fabric nodes.
func Every(clock Clock, d time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := clock.NewTimer(d)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
				t.Reset(d)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}
