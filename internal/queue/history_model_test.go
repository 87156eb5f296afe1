package queue

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// modelHistory is the reference History is checked against: the retained
// tuples as a plain []telemetry.Info, with the same ordering, eviction and
// naming rules and none of the columns.
type modelHistory struct {
	held     []telemetry.Info
	capacity int
	names    map[telemetry.MetricID]bool
	evicted  []telemetry.Info
	dropped  uint64
}

func (m *modelHistory) append(in telemetry.Info) bool {
	n := len(m.held)
	if n > 0 && in.Timestamp < m.held[n-1].Timestamp ||
		in.Kind > telemetry.KindInsight || in.Source > telemetry.Predicted ||
		!m.names[in.Metric] && len(m.names) > nameMask {
		m.dropped++
		return false
	}
	m.names[in.Metric] = true
	if n == m.capacity {
		m.evicted = append(m.evicted, m.held[0])
		m.held = m.held[1:]
	}
	m.held = append(m.held, in)
	return true
}

func (m *modelHistory) scan(from, to int64) []telemetry.Info {
	var out []telemetry.Info
	for _, in := range m.held {
		if in.Timestamp >= from && in.Timestamp <= to {
			out = append(out, in)
		}
	}
	return out
}

func (m *modelHistory) floor() (int64, uint64, bool) {
	if len(m.held) == 0 {
		return 0, uint64(len(m.evicted)), false
	}
	return m.held[0].Timestamp, uint64(len(m.evicted)), true
}

// sameInfos reports the first difference between two tuple runs.
func sameInfos(got, want []telemetry.Info) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("tuple %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestHistoryMatchesReference drives rings through seeded appends — one at a
// time and in runs through AppendRun — over one to three metrics, both kinds
// and both sources, with tied and out-of-order timestamps, and requires every
// read, every eviction and the drop count to agree with modelHistory after
// each step. The capacities straddle the columns' growth: 1, 255 and 256 are
// allocated at once; 257 and 300 grow at 256 to their capacity, and 257
// evicts on the append right after; 1 024 doubles twice. Each ring wraps, and
// RangeFuncAt is also handed an epoch Floor read before a growth. It then
// fills one ring's metric names to the tag's width: a metric past it is
// dropped, not stored under another's name.
func TestHistoryMatchesReference(t *testing.T) {
	metrics := []telemetry.MetricID{"node1.nvme0.capacity", "node2.hdd1.capacity", "cluster.load"}
	for i, capacity := range []int{1, 255, 256, 257, 300, 1024} {
		for seed := int64(3*i + 1); seed <= int64(3*i+3); seed++ {
			matchReference(t, metrics, capacity, seed)
		}
	}

	t.Run("names", func(t *testing.T) {
		m := &modelHistory{capacity: 4, names: map[telemetry.MetricID]bool{}}
		h := NewHistory(m.capacity, nil)
		dropped := obs.NewRegistry().Counter("drops_total")
		h.Instrument(nil, dropped)
		for i := 0; i <= nameMask+2; i++ {
			for _, metric := range []telemetry.MetricID{telemetry.MetricID(fmt.Sprint("m", i)), "m0"} {
				in := telemetry.NewFact(metric, int64(i), float64(i))
				if got, want := h.Append(in), m.append(in); got != want {
					t.Fatalf("Append(%v) = %v, want %v", in, got, want)
				}
			}
		}
		if err := sameInfos(collectRangeFunc(h, -1<<62, 1<<62), m.held); err != nil {
			t.Fatal(err)
		}
		if dropped.Value() != 2 || m.dropped != 2 {
			t.Fatalf("dropped %d (model %d), want the 2 metrics past the names cap", dropped.Value(), m.dropped)
		}
	})
}

// matchReference is one seeded run of TestHistoryMatchesReference: a ring of
// the given capacity against modelHistory, through enough steps to wrap it.
func matchReference(t *testing.T, metrics []telemetry.MetricID, capacity int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &modelHistory{capacity: capacity, names: map[telemetry.MetricID]bool{}}
	var evicted []telemetry.Info
	h := NewHistory(m.capacity, func(in telemetry.Info) { evicted = append(evicted, in) })
	dropped := obs.NewRegistry().Counter("drops_total")
	h.Instrument(nil, dropped)
	used := metrics[:1+rng.Intn(len(metrics))]
	ts := int64(rng.Intn(100))
	// The epoch the last Floor returned, and the columns' length then.
	var floorEpoch uint64
	floorLen, acrossGrowth, checked := 0, 0, 0

	// tuple draws the next tuple: mostly later, sometimes tied or older,
	// now and then of a kind the tag cannot name.
	tuple := func() telemetry.Info {
		switch rng.Intn(6) {
		case 0:
			ts -= 1 + int64(rng.Intn(3)) // out of order
		case 1, 2:
			// a tie
		default:
			ts += 1 + int64(rng.Intn(5))
		}
		in := telemetry.Info{
			Metric:    used[rng.Intn(len(used))],
			Timestamp: ts,
			Value:     rng.NormFloat64(),
			Kind:      telemetry.Kind(rng.Intn(2)),
			Source:    telemetry.Source(rng.Intn(2)),
		}
		if rng.Intn(50) == 0 {
			in.Kind = 2 // no tag bit for it
		}
		return in
	}
	// model appends in to the model, keeping ts at or past its newest.
	model := func(in telemetry.Info) bool {
		ok := m.append(in)
		if n := len(m.held); n > 0 {
			ts = max(ts, m.held[n-1].Timestamp)
		}
		return ok
	}

	// About two in three steps store a tuple, so this wraps the ring twice.
	for step := 0; step < 2000+3*capacity; step++ {
		var err error
		switch rng.Intn(9) {
		case 0, 1, 2, 3:
			in := tuple()
			if got, want := h.Append(in), model(in); got != want {
				err = fmt.Errorf("Append(%v) = %v, want %v", in, got, want)
			}
		case 8:
			// A run of up to 6 through AppendRun, sometimes with an older
			// stamp or an untaggable tuple forced into its middle.
			run := make([]telemetry.Info, 1+rng.Intn(6))
			top := ts
			for i := range run {
				run[i] = tuple()
				top = max(top, run[i].Timestamp)
				ts = top // as model would leave it
			}
			if mid := rng.Intn(len(run)); mid > 0 {
				switch rng.Intn(3) {
				case 0:
					run[mid].Timestamp = run[mid-1].Timestamp - 1
				case 1:
					run[mid].Source = 2
				}
			}
			want := 0
			for _, in := range run {
				if model(in) {
					want++
				}
			}
			if got := h.AppendRun(run); got != want {
				err = fmt.Errorf("AppendRun(%v) = %d, want %d", run, got, want)
			}
		case 4:
			from := ts - int64(rng.Intn(40))
			to := from + int64(rng.Intn(40)) - 3
			if err = sameInfos(collectRangeFunc(h, from, to), m.scan(from, to)); err != nil {
				err = fmt.Errorf("RangeFunc(%d, %d): %w", from, to, err)
			}
		case 5:
			from := ts - int64(rng.Intn(40))
			to := from + int64(rng.Intn(40))
			_, epoch, _ := m.floor()
			switch rng.Intn(3) {
			case 0:
				epoch += uint64(rng.Intn(3)) - 1 // stale, or current after all
			case 1:
				epoch = floorEpoch // read by Floor some steps ago
			}
			var got []telemetry.Info
			ok := h.RangeFuncAt(epoch, from, to, func(in telemetry.Info) bool { got = append(got, in); return true })
			if current := epoch == uint64(len(m.evicted)); ok != current {
				err = fmt.Errorf("RangeFuncAt(epoch %d) scanned=%v at epoch %d", epoch, ok, len(m.evicted))
			} else if ok {
				err = sameInfos(got, m.scan(from, to))
				if epoch == floorEpoch && len(h.ts) != floorLen {
					acrossGrowth++
				}
			} else if got != nil {
				err = fmt.Errorf("RangeFuncAt at a stale epoch visited %d tuples", len(got))
			}
		case 6:
			got, ok := h.Latest()
			if want := len(m.held) > 0; ok != want || want && got != m.held[len(m.held)-1] {
				err = fmt.Errorf("Latest = %v, %v", got, ok)
			}
		case 7:
			oldest, newest, ok := h.Bounds()
			if want := len(m.held) > 0; ok != want || want && (oldest != m.held[0].Timestamp || newest != m.held[len(m.held)-1].Timestamp) {
				err = fmt.Errorf("Bounds = %d, %d, %v", oldest, newest, ok)
			}
			gotTs, gotEpoch, gotOK := h.Floor()
			if wantTs, wantEpoch, wantOK := m.floor(); gotTs != wantTs || gotEpoch != wantEpoch || gotOK != wantOK {
				err = fmt.Errorf("Floor = %d, %d, %v, want %d, %d, %v", gotTs, gotEpoch, gotOK, wantTs, wantEpoch, wantOK)
			}
			floorEpoch, floorLen = gotEpoch, len(h.ts)
		}
		// Only the evictions since the last step are new to compare.
		if err == nil {
			if len(evicted) != len(m.evicted) {
				err = fmt.Errorf("%d evictions, want %d", len(evicted), len(m.evicted))
			} else if err = sameInfos(evicted[checked:], m.evicted[checked:]); err != nil {
				err = fmt.Errorf("evictions after the %dth: %w", checked, err)
			}
			checked = len(evicted)
		}
		if err == nil && dropped.Value() != m.dropped {
			err = fmt.Errorf("dropped %d, want %d", dropped.Value(), m.dropped)
		}
		if err != nil {
			t.Fatalf("seed %d (capacity %d, %d metrics) step %d: %v", seed, m.capacity, len(used), step, err)
		}
	}
	if len(m.evicted) < 2*capacity {
		t.Fatalf("seed %d (capacity %d): %d evictions, the ring never wrapped twice", seed, capacity, len(m.evicted))
	}
	if capacity > 512 && acrossGrowth == 0 { // it grows from 256 slots twice
		t.Fatalf("seed %d (capacity %d): no RangeFuncAt read an epoch from before a growth", seed, capacity)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the first may only finish a cycle already under way
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHistoryFootprint: a ring costs the 18-byte slots it has grown to and
// little else. Fresh, it has none; holding 1 000 tuples of 4 096, it has
// grown to 1 024 slots; once wrapped, it holds all 4 096. The runtime
// allocates a few KiB of its own at moments no test chooses (on a loaded
// box, once in every few runs), which lands in at most one of three
// measurements of a ring, so each bound is held by the smallest.
func TestHistoryFootprint(t *testing.T) {
	const size, partly, slack = 4096, 1000, 1 << 10
	fresh, filling, wrapped := int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64)
	for try := 0; try < 3; try++ {
		base := int64(liveHeap())
		h := NewHistory(size, nil)
		fresh = min(fresh, int64(liveHeap())-base)
		for i := 0; i < 3*size; i++ {
			if i == partly {
				filling = min(filling, int64(liveHeap())-base)
			}
			h.Append(telemetry.NewFact("m", int64(i), float64(i)))
		}
		wrapped = min(wrapped, int64(liveHeap())-base)
		runtime.KeepAlive(h)
	}
	if fresh > slack {
		t.Errorf("NewHistory(%d) holds %d bytes of live heap, want <= %d", size, fresh, slack)
	}
	if filling > 1024*18+slack {
		t.Errorf("a %d-slot ring holding %d tuples holds %d bytes of live heap, want <= %d", size, partly, filling, 1024*18+slack)
	}
	if wrapped > size*18+slack {
		t.Errorf("a wrapped ring holds %d bytes of live heap, want <= %d", wrapped, size*18+slack)
	}
}
