package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestHistoryConcurrentEvictionOrder is the regression test for the
// out-of-order eviction bug: Append used to invoke onEvict after releasing
// h.mu, so two appenders racing through the callback could deliver evicted
// tuples to the archiver out of timestamp order. Evictions must now be
// observed in non-decreasing timestamp order (run with -race).
func TestHistoryConcurrentEvictionOrder(t *testing.T) {
	const (
		workers = 4
		appends = 5000
	)
	var evMu sync.Mutex
	var evicted []int64
	h := NewHistory(1, func(i telemetry.Info) {
		// Simulate archiver latency: the pre-fix code ran this callback
		// outside the History lock, so a yield here let racing appenders
		// swap their evictions' arrival order.
		runtime.Gosched()
		evMu.Lock()
		evicted = append(evicted, i.Timestamp)
		evMu.Unlock()
	})
	r := obs.NewRegistry()
	h.Instrument(r.Counter("evictions_total"), r.Counter("drops_total"))

	var ts, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if !h.Append(telemetry.NewFact("m", ts.Add(1), float64(i))) {
					rejected.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	evMu.Lock()
	defer evMu.Unlock()
	for i := 1; i < len(evicted); i++ {
		if evicted[i] < evicted[i-1] {
			t.Fatalf("eviction %d out of order: ts %d after %d", i, evicted[i], evicted[i-1])
		}
	}
	if len(evicted) == 0 {
		t.Fatal("expected evictions")
	}
	if got := r.Snapshot().Counter("evictions_total"); got != uint64(len(evicted)) {
		t.Fatalf("obs evictions = %d, callback saw %d", got, len(evicted))
	}
	// Every append either stored (evicting, once the 1-slot window is warm)
	// or was rejected as out of order; both tallies must add up.
	if got, want := r.Snapshot().Counter("drops_total"), uint64(rejected.Load()); got != want {
		t.Fatalf("obs drops = %d, Append rejected %d", got, want)
	}
}

// TestHistoryEvictionCallbackSeesOrderedStream checks single-threaded
// eviction delivery is the displaced entry, oldest first.
func TestHistoryEvictionCallbackSeesOrderedStream(t *testing.T) {
	var evicted []int64
	h := NewHistory(2, func(i telemetry.Info) { evicted = append(evicted, i.Timestamp) })
	for ts := int64(1); ts <= 5; ts++ {
		if !h.Append(telemetry.NewFact("m", ts, 0)) {
			t.Fatalf("append %d rejected", ts)
		}
	}
	want := []int64{1, 2, 3}
	if len(evicted) != len(want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Fatalf("evicted %v, want %v", evicted, want)
		}
	}
}
