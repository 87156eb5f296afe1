package queue

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

// buildHistory fills a History of the given capacity with n entries whose
// timestamps start at base and advance by 0..2 each step (duplicates and
// gaps), wrapping the ring when n > capacity.
func buildHistory(capacity, n int, base int64, r *rand.Rand) *History {
	h := NewHistory(capacity, nil)
	ts := base
	for i := 0; i < n; i++ {
		h.Append(telemetry.NewFact("m", ts, float64(i)))
		ts += int64(r.Intn(3))
	}
	return h
}

// collectRangeFunc materializes a RangeFunc scan.
func collectRangeFunc(h *History, from, to int64) []telemetry.Info {
	var out []telemetry.Info
	h.RangeFunc(from, to, func(in telemetry.Info) bool {
		out = append(out, in)
		return true
	})
	return out
}

// Property: RangeFunc over a window observes exactly the entries a linear
// filter of the whole ring keeps, for any fill level (wrapped and unwrapped
// rings) and any query window.
func TestRangeFuncMatchesRangeQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(64)
		n := r.Intn(3 * capacity) // under-full, exactly full, and wrapped
		h := buildHistory(capacity, n, int64(r.Intn(10)), r)
		oldest, newest, _ := h.Bounds()
		all := collectRangeFunc(h, -1<<62, 1<<62)
		for trial := 0; trial < 8; trial++ {
			from := oldest - 2 + int64(r.Intn(int(newest-oldest+5)))
			to := from - 3 + int64(r.Intn(int(newest-oldest+8)))
			got := collectRangeFunc(h, from, to)
			var want []telemetry.Info
			for _, in := range all {
				if in.Timestamp >= from && in.Timestamp <= to {
					want = append(want, in)
				}
			}
			if len(got) != len(want) {
				t.Logf("seed=%d cap=%d n=%d [%d,%d]: RangeFunc %d entries, linear filter %d",
					seed, capacity, n, from, to, len(got), len(want))
				return false
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeFuncEarlyStop verifies a false return halts the scan.
func TestRangeFuncEarlyStop(t *testing.T) {
	h := NewHistory(16, nil)
	for i := 0; i < 10; i++ {
		h.Append(telemetry.NewFact("m", int64(i), float64(i)))
	}
	visited := 0
	h.RangeFunc(0, 1<<62, func(telemetry.Info) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("visited=%d want 3", visited)
	}
}

// TestScanDuringEvictionRace hammers RangeFunc readers against an
// appender that keeps the ring wrapping (evicting), so the race detector can
// see any unsynchronized access, and asserts every observed scan is
// internally timestamp-ordered.
func TestScanDuringEvictionRace(t *testing.T) {
	evicted := 0
	h := NewHistory(32, func(telemetry.Info) { evicted++ })
	done := make(chan struct{})
	var appender, readers sync.WaitGroup
	appender.Add(1)
	go func() {
		defer appender.Done()
		for ts := int64(0); ; ts++ {
			select {
			case <-done:
				return
			default:
			}
			h.Append(telemetry.NewFact("m", ts, float64(ts)))
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				last := int64(-1)
				ok := true
				n := 0
				h.RangeFunc(-1<<62, 1<<62, func(in telemetry.Info) bool {
					if in.Timestamp < last {
						ok = false
					}
					last = in.Timestamp
					n++
					return true
				})
				if !ok {
					t.Error("RangeFunc observed out-of-order timestamps")
					return
				}
				if n > 32 {
					t.Errorf("RangeFunc visited %d entries, capacity 32", n)
					return
				}
			}
		}()
	}
	// Let readers finish, then stop the appender.
	readers.Wait()
	close(done)
	appender.Wait()
}

// TestHistoryGrowthRace runs RangeFunc, Bounds, Latest and Floor readers
// while one appender grows a 4 096-slot ring through every doubling of its
// columns and then wraps it, so the race detector sees any read of a column
// a growth replaced. The appender stores timestamps 0, 1, 2, ... with equal
// values, so every read can be checked whole: a scan is gap-free and spans
// Bounds, Latest's value is its timestamp, and Floor's oldest timestamp is
// its eviction epoch.
func TestHistoryGrowthRace(t *testing.T) {
	const size = 4096
	h := NewHistory(size, nil)
	done := make(chan struct{})
	var readers sync.WaitGroup
	read := []func() error{
		func() error {
			oldest, newest, ok := h.Bounds()
			if !ok {
				return nil
			}
			next := int64(-1)
			h.RangeFunc(oldest, newest, func(in telemetry.Info) bool {
				if next >= 0 && in.Timestamp != next {
					return false
				}
				next = in.Timestamp + 1
				return true
			})
			if next != newest+1 || newest-oldest >= size {
				return fmt.Errorf("scan of [%d, %d] stopped before %d", oldest, newest, next)
			}
			return nil
		},
		func() error {
			if in, ok := h.Latest(); ok && in.Value != float64(in.Timestamp) {
				return fmt.Errorf("Latest = %v", in)
			}
			return nil
		},
		func() error {
			if oldest, epoch, ok := h.Floor(); ok && oldest != int64(epoch) {
				return fmt.Errorf("Floor = %d at epoch %d", oldest, epoch)
			}
			return nil
		},
	}
	for _, fn := range read {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // and let the appender in
			}
		}()
	}
	for ts := int64(0); ts < 2*size; ts++ {
		h.Append(telemetry.NewFact("m", ts, float64(ts)))
		if ts%32 == 0 {
			runtime.Gosched() // let the readers in between growths
		}
	}
	close(done)
	readers.Wait()
	if len(h.ts) != size {
		t.Fatalf("a wrapped ring has %d slots, want %d", len(h.ts), size)
	}
}

// TestRangeFuncZeroAlloc pins the headline property: an aggregate scan via
// RangeFunc performs zero per-entry heap allocations.
func TestRangeFuncZeroAlloc(t *testing.T) {
	h := NewHistory(1024, nil)
	for i := 0; i < 2048; i++ {
		h.Append(telemetry.NewFact("m", int64(i), float64(i)))
	}
	var sum float64
	fn := func(in telemetry.Info) bool { sum += in.Value; return true }
	allocs := testing.AllocsPerRun(100, func() {
		sum = 0
		h.RangeFunc(-1<<62, 1<<62, fn)
	})
	if allocs != 0 {
		t.Fatalf("RangeFunc allocated %.1f objects per scan, want 0", allocs)
	}
}

// TestRangeWrapped covers the two-span scan across the ring seam.
func TestRangeWrapped(t *testing.T) {
	h := NewHistory(5, nil)
	for i := 0; i < 13; i++ {
		h.Append(telemetry.NewFact("m", int64(i), float64(i)))
	}
	snap := collectRangeFunc(h, -1<<62, 1<<62)
	if len(snap) != 5 {
		t.Fatalf("len=%d", len(snap))
	}
	for i, in := range snap {
		if in.Timestamp != int64(8+i) {
			t.Fatalf("snap[%d].ts=%d want %d", i, in.Timestamp, 8+i)
		}
	}
}

func benchHistory(n int) *History {
	h := NewHistory(n, nil)
	for i := 0; i < n; i++ {
		h.Append(telemetry.NewFact("bench.metric", int64(i), float64(i)))
	}
	return h
}

// BenchmarkHistoryRangeFunc is the zero-copy aggregate scan.
func BenchmarkHistoryRangeFunc(b *testing.B) {
	h := benchHistory(4096)
	var sum float64
	fn := func(in telemetry.Info) bool { sum += in.Value; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum = 0
		h.RangeFunc(-1<<62, 1<<62, fn)
	}
	_ = sum
}
