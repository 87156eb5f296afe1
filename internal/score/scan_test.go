package score

import (
	"slices"
	"testing"

	"repro/internal/archive"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// ringOverArchive is a vertex core over a history ring of the given size that
// evicts into a fresh archive, preloaded with tuples at timestamps 1..n.
func ringOverArchive(t *testing.T, size int, n int64) (*vertex, func(ts int64)) {
	t.Helper()
	log, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	h := queue.NewHistory(size, func(i telemetry.Info) {
		if err := log.Append(i); err != nil {
			t.Error(err)
		}
	})
	seq := 0.0
	add := func(ts int64) {
		seq++
		if !h.Append(telemetry.NewFact("m", ts, seq)) {
			t.Fatalf("append at %d rejected", ts)
		}
	}
	for ts := int64(1); ts <= n; ts++ {
		add(ts)
	}
	return &vertex{history: h, archive: log}, add
}

// TestScanSurvivesEvictionDuringArchiveHalf is the regression test for the
// hole between the two halves of a scan: tuples the ring evicts while the
// archive half runs used to be in neither half. The callback itself appends
// — no goroutines — enough to push the ring's floor past tuples the scan has
// not reached; every tuple present when the scan began must still be visited
// exactly once, in order.
func TestScanSurvivesEvictionDuringArchiveHalf(t *testing.T) {
	const ring, n = 8, 40
	v, add := ringOverArchive(t, ring, n)
	var got []int64
	next := int64(n)
	v.ScanRange(1, 1<<40, func(i telemetry.Info) bool {
		got = append(got, i.Timestamp)
		switch i.Timestamp {
		case 5, 20: // mid-archive, twice: evict past the floor the scan planned with
			for k := 0; k < 6; k++ {
				next++
				add(next)
			}
		case n - ring + 3: // inside the first re-scanned sliver
			next++
			add(next)
		}
		return true
	})
	if len(got) < n {
		t.Fatalf("scan visited %d tuples, %d were there when it began: %v", len(got), n, got)
	}
	for i, ts := range got {
		if ts != int64(i+1) {
			t.Fatalf("position %d holds tuple %d (lost, repeated or out of order): %v", i, ts, got)
		}
	}
	after := int64(0)
	v.ScanRange(1, 1<<40, func(telemetry.Info) bool { after++; return true })
	if after != next {
		t.Fatalf("a second scan visited %d tuples, want %d", after, next)
	}
}

// TestScanEqualTimestampsAtTheBoundary: History admits equal timestamps, so
// a run of them can straddle the ring's floor — some archived, some retained
// — and more of the run can be evicted mid-scan. The archive replays equal
// timestamps in append order, which lets the scan count the ones it has
// visited and skip exactly those when it comes back for the rest.
func TestScanEqualTimestampsAtTheBoundary(t *testing.T) {
	const ring = 4
	v, add := ringOverArchive(t, ring, 0)
	for _, ts := range []int64{1, 2, 7, 7, 7, 7, 7, 7, 9} { // floor 7: three 7s archived, three retained
		add(ts)
	}
	count := func(fn func(telemetry.Info)) []float64 {
		var vals []float64
		v.ScanRange(2, 8, func(i telemetry.Info) bool {
			vals = append(vals, i.Value)
			fn(i)
			return true
		})
		return vals
	}
	want := []float64{2, 3, 4, 5, 6, 7, 8}
	if got := count(func(telemetry.Info) {}); !slices.Equal(got, want) {
		t.Fatalf("static boundary: visited values %v, want %v", got, want)
	}
	// Evict two more 7s while the scan is on the first archived one.
	got := count(func(i telemetry.Info) {
		if i.Value == 3 {
			add(10)
			add(11)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("boundary moved mid-scan: visited values %v, want %v", got, want)
	}
}
