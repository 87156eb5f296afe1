package sim

import (
	"sort"
	"sync"
	"time"
)

// Virtual is a manually-advanced Clock for deterministic tests and for
// replaying captured workloads (the paper replays HACC traces "so that there
// would be minimal issues with time drift or interference between runs",
// §4.3.1). Advance moves virtual time forward, delivering pending ticks in
// deadline order (registration order breaks ties, so a given schedule always
// fires the same way).
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	seq      uint64
	waiters  []*vwaiter
	watchers []*watcher
}

// vwaiter is one pending tick: a one-shot After channel or an armed Timer.
type vwaiter struct {
	when  time.Time
	seq   uint64
	ch    chan time.Time
	timer bool // re-armable Timer entries use non-blocking sends
}

// watcher is one BlockUntil registration.
type watcher struct {
	n  int
	ch chan struct{}
}

// NewVirtual returns a virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual { return &Virtual{now: start} }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock. The returned channel fires when virtual time
// reaches now+d via Advance; d <= 0 fires immediately.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	when := v.now.Add(d)
	if d <= 0 {
		ch <- when
		return ch
	}
	v.addWaiterLocked(&vwaiter{when: when, ch: ch})
	return ch
}

// Sleep implements Clock: it blocks until another goroutine advances the
// clock past now+d. Sleeping on a Virtual clock from the same goroutine that
// advances it deadlocks — single-threaded simulations advance instead.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) *Timer {
	ch := make(chan time.Time, 1)
	vt := &vtimer{clock: v, ch: ch}
	v.mu.Lock()
	vt.arm(d)
	v.mu.Unlock()
	return &Timer{C: ch, impl: vt}
}

// addWaiterLocked inserts w keeping (when, seq) order and wakes watchers.
func (v *Virtual) addWaiterLocked(w *vwaiter) {
	v.seq++
	w.seq = v.seq
	v.waiters = append(v.waiters, w)
	sort.SliceStable(v.waiters, func(i, j int) bool {
		if !v.waiters[i].when.Equal(v.waiters[j].when) {
			return v.waiters[i].when.Before(v.waiters[j].when)
		}
		return v.waiters[i].seq < v.waiters[j].seq
	})
	for i := 0; i < len(v.watchers); {
		if len(v.waiters) >= v.watchers[i].n {
			close(v.watchers[i].ch)
			v.watchers = append(v.watchers[:i], v.watchers[i+1:]...)
			continue
		}
		i++
	}
}

// removeWaiterLocked unlinks w, reporting whether it was still pending.
func (v *Virtual) removeWaiterLocked(w *vwaiter) bool {
	for i, cand := range v.waiters {
		if cand == w {
			v.waiters = append(v.waiters[:i], v.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Advance moves virtual time forward by d, firing due waiters in deadline
// order.
func (v *Virtual) Advance(d time.Duration) { v.AdvanceTo(v.Now().Add(d)) }

// AdvanceTo moves virtual time to target (no-op when target is not after
// now), firing due waiters in deadline order.
func (v *Virtual) AdvanceTo(target time.Time) {
	v.mu.Lock()
	if target.Before(v.now) {
		v.mu.Unlock()
		return
	}
	v.now = target
	var due []*vwaiter
	i := 0
	for ; i < len(v.waiters); i++ {
		if v.waiters[i].when.After(target) {
			break
		}
		due = append(due, v.waiters[i])
	}
	v.waiters = v.waiters[i:]
	v.mu.Unlock()
	for _, w := range due {
		if w.timer {
			// time.Timer semantics: at most one buffered tick, never block.
			select {
			case w.ch <- w.when:
			default:
			}
			continue
		}
		w.ch <- w.when
	}
}

// Step advances the clock to the earliest pending deadline, firing it. It
// reports false (advancing nothing) when no waiter is pending — the
// event-loop primitive of single-threaded simulations.
func (v *Virtual) Step() bool {
	next, ok := v.NextDeadline()
	if !ok {
		return false
	}
	v.AdvanceTo(next)
	return true
}

// NextDeadline returns the earliest pending tick deadline.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.waiters) == 0 {
		return time.Time{}, false
	}
	return v.waiters[0].when, true
}

// PendingWaiters returns how many ticks (After channels and armed timers)
// have not yet fired.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// BlockUntil returns a channel that closes once at least n ticks are
// pending. Tests use it instead of time.Sleep to know a goroutine under test
// has parked on the clock before advancing it.
func (v *Virtual) BlockUntil(n int) <-chan struct{} {
	ch := make(chan struct{})
	v.mu.Lock()
	if len(v.waiters) >= n {
		v.mu.Unlock()
		close(ch)
		return ch
	}
	v.watchers = append(v.watchers, &watcher{n: n, ch: ch})
	v.mu.Unlock()
	return ch
}

// vtimer is the Virtual implementation behind Clock.NewTimer.
type vtimer struct {
	clock *Virtual
	ch    chan time.Time

	w *vwaiter // current arming; nil when stopped/fired
}

// arm registers a fresh waiter; caller holds clock.mu.
func (t *vtimer) arm(d time.Duration) {
	w := &vwaiter{when: t.clock.now.Add(d), ch: t.ch, timer: true}
	t.w = w
	if d <= 0 {
		select {
		case t.ch <- w.when:
		default:
		}
		t.w = nil
		return
	}
	t.clock.addWaiterLocked(w)
}

// Stop implements Timer.
func (t *vtimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.w == nil {
		return false
	}
	pending := t.clock.removeWaiterLocked(t.w)
	t.w = nil
	return pending
}

// Reset implements Timer.
func (t *vtimer) Reset(d time.Duration) bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	pending := false
	if t.w != nil {
		pending = t.clock.removeWaiterLocked(t.w)
	}
	t.arm(d)
	return pending
}
