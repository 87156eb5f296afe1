package queue

import (
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

func TestHistoryAppendAndLatest(t *testing.T) {
	h := NewHistory(4, nil)
	if _, ok := h.Latest(); ok {
		t.Fatal("Latest on empty history")
	}
	for i := 0; i < 10; i++ {
		if !h.Append(telemetry.NewFact("m", int64(i), float64(i))) {
			t.Fatalf("append %d rejected", i)
		}
	}
	if n := len(collectRangeFunc(h, -1<<62, 1<<62)); n != 4 {
		t.Fatalf("holds %d entries, want 4", n)
	}
	latest, ok := h.Latest()
	if !ok || latest.Timestamp != 9 {
		t.Fatalf("Latest=%v ok=%v", latest, ok)
	}
}

func TestHistoryEviction(t *testing.T) {
	var evicted []int64
	h := NewHistory(3, func(i telemetry.Info) { evicted = append(evicted, i.Timestamp) })
	for i := 0; i < 5; i++ {
		h.Append(telemetry.NewFact("m", int64(i), 0))
	}
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 1 {
		t.Fatalf("evicted=%v", evicted)
	}
}

func TestHistoryRejectsOutOfOrder(t *testing.T) {
	h := NewHistory(4, nil)
	dropped := obs.NewRegistry().Counter("drops_total")
	h.Instrument(nil, dropped)
	h.Append(telemetry.NewFact("m", 10, 0))
	if h.Append(telemetry.NewFact("m", 5, 0)) {
		t.Fatal("out-of-order append accepted")
	}
	if dropped.Value() != 1 {
		t.Fatalf("dropped=%d", dropped.Value())
	}
	// Equal timestamps are allowed (multiple events in one poll tick).
	if !h.Append(telemetry.NewFact("m", 10, 1)) {
		t.Fatal("equal-timestamp append rejected")
	}
}

func TestHistoryRange(t *testing.T) {
	h := NewHistory(8, nil)
	for i := 0; i < 8; i++ {
		h.Append(telemetry.NewFact("m", int64(i*10), float64(i)))
	}
	got := collectRangeFunc(h, 15, 45)
	if len(got) != 3 || got[0].Timestamp != 20 || got[2].Timestamp != 40 {
		t.Fatalf("Range(15,45)=%v", got)
	}
	if got := collectRangeFunc(h, 100, 200); got != nil {
		t.Fatalf("out-of-window range = %v", got)
	}
	if got := collectRangeFunc(h, 45, 15); got != nil {
		t.Fatalf("inverted range = %v", got)
	}
	all := collectRangeFunc(h, 0, 70)
	if len(all) != 8 {
		t.Fatalf("full range len=%d", len(all))
	}
}

func TestHistoryRangeWrapped(t *testing.T) {
	// Force the ring to wrap, then binary-search across the wrap point.
	h := NewHistory(4, nil)
	for i := 0; i < 10; i++ {
		h.Append(telemetry.NewFact("m", int64(i), float64(i)))
	}
	got := collectRangeFunc(h, 6, 8)
	if len(got) != 3 || got[0].Timestamp != 6 || got[2].Timestamp != 8 {
		t.Fatalf("wrapped Range = %v", got)
	}
}

func TestHistoryRangeWholeWindow(t *testing.T) {
	h := NewHistory(3, nil)
	for i := 0; i < 5; i++ {
		h.Append(telemetry.NewFact("m", int64(i), 0))
	}
	s := collectRangeFunc(h, -1<<62, 1<<62)
	if len(s) != 3 || s[0].Timestamp != 2 || s[2].Timestamp != 4 {
		t.Fatalf("Range=%v", s)
	}
}

// Property: a RangeFunc scan agrees with a naive linear filter for any sorted
// input and query bounds.
func TestHistoryRangeQuick(t *testing.T) {
	f := func(raw []int16, a, b int16) bool {
		h := NewHistory(32, nil)
		var kept []int64
		last := int64(-1 << 40)
		for _, r := range raw {
			ts := int64(r)
			if ts < last {
				continue // history rejects these; skip to keep model in sync
			}
			last = ts
			h.Append(telemetry.NewFact("m", ts, 0))
			kept = append(kept, ts)
		}
		if len(kept) > 32 {
			kept = kept[len(kept)-32:]
		}
		lo, hi := int64(a), int64(b)
		var want []int64
		for _, ts := range kept {
			if ts >= lo && ts <= hi {
				want = append(want, ts)
			}
		}
		got := collectRangeFunc(h, lo, hi)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Timestamp != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHistoryAppend times one tuple through Append, and tuples in runs
// of 4 through AppendRun (an insight run, a Delphi fill); ns/op is per tuple
// in both.
func BenchmarkHistoryAppend(b *testing.B) {
	b.Run("one", func(b *testing.B) {
		h := NewHistory(4096, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Append(telemetry.NewFact("m", int64(i), float64(i)))
		}
	})
	b.Run("run-of-4", func(b *testing.B) {
		h := NewHistory(4096, nil)
		var run [4]telemetry.Info
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(run) {
			for j := range run {
				run[j] = telemetry.NewFact("m", int64(i+j), float64(i+j))
			}
			h.AppendRun(run[:])
		}
	})
}

func BenchmarkHistoryLatest(b *testing.B) {
	h := NewHistory(4096, nil)
	for i := 0; i < 4096; i++ {
		h.Append(telemetry.NewFact("m", int64(i), float64(i)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Latest()
	}
}
