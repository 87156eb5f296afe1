// Package queue provides the in-memory queue backing each SCoRe vertex: a
// timestamp-indexed history ring serving the Query Executor's
// timestamp-based indexing.
package queue

import (
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// A slot's tag packs the tuple's source (bit 15) and kind (bit 14) above an
// index into the ring's metric names.
const (
	sourceShift = 15
	kindShift   = 14
	nameMask    = 1<<kindShift - 1
)

// History is a bounded, timestamp-ordered window of the most recent
// Information tuples of one metric. The SCoRe Query Executor parses it with
// timestamp-based indexing (binary search); entries evicted from the window
// are handed to an eviction callback so the Archiver can persist them.
//
// The ring is stored as columns: a slot is its timestamp, its value and a
// 2-byte tag naming its metric, kind and source — 18 B with no pointer, so
// the GC never scans a ring's contents. Readers get each slot back as a
// telemetry.Info. The columns grow as the window first fills, so a ring that
// has not wrapped costs about the slots it holds, not its capacity.
//
// Writers must append tuples in non-decreasing timestamp order (Facts are
// ordered by timestamp, making them linearizable — §3.1 of the paper).
type History struct {
	mu       sync.RWMutex
	ts       []int64
	val      []float64
	tag      []uint16
	capacity int                           // the window's bound, which the columns grow to
	names    []telemetry.MetricID          // every metric the ring has stored, in first-seen order
	index    map[telemetry.MetricID]uint16 // names by metric
	last     uint16                        // names index of the newest append
	head     int                           // index of oldest entry
	count    int

	onEvict func(telemetry.Info)
	evicted uint64 // entries displaced so far: the eviction epoch

	// Optional obs instruments (nil-safe no-ops when not instrumented).
	obsEvicted *obs.Counter
	obsDropped *obs.Counter
}

// NewHistory returns a history window holding up to capacity entries.
//
// Callback contract: onEvict, if non-nil, is called synchronously with each
// entry displaced by Append, while the History lock is held. Evictions are
// therefore delivered in timestamp order even under concurrent appenders —
// the Archiver depends on this, since its log rejects nothing and replays in
// append order. The callback must be fast and must not call back into the
// History (that would self-deadlock); hand heavy work to another goroutine.
func NewHistory(capacity int, onEvict func(telemetry.Info)) *History {
	if capacity < 1 {
		capacity = 1
	}
	return &History{
		capacity: capacity,
		index:    make(map[telemetry.MetricID]uint16),
		onEvict:  onEvict,
	}
}

// Instrument attaches obs counters for evictions and rejected appends (see
// Append). Pass nil for either to skip it.
func (h *History) Instrument(evicted, dropped *obs.Counter) {
	h.mu.Lock()
	h.obsEvicted, h.obsDropped = evicted, dropped
	h.mu.Unlock()
}

// Append adds info to the window. Appends whose timestamp precedes the
// newest stored entry are rejected (the queue is timestamp-linearized) and
// counted on the instrument; Append reports whether the entry was stored.
// So is a tuple the tag cannot name: a kind or source outside the two
// defined, or a metric past the ring's 16 384th distinct one.
//
// The eviction callback runs under the History lock (see NewHistory): it was
// previously invoked after unlock, which let two concurrent appenders hand
// evicted tuples to the archiver out of timestamp order.
func (h *History) Append(info telemetry.Info) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.appendLocked(info)
}

// AppendRun appends infos in order under one lock, each by Append's rules —
// an entry older than the newest stored, or one the tag cannot name, is
// rejected and counted, and the rest of the run still goes in — and returns
// how many were stored. Evictions reach the callback in order, under the
// lock, as with Append.
func (h *History) AppendRun(infos []telemetry.Info) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, info := range infos {
		if h.appendLocked(info) {
			n++
		}
	}
	return n
}

// appendLocked is Append under h.mu, held for writing.
func (h *History) appendLocked(info telemetry.Info) bool {
	if h.count > 0 && info.Timestamp < h.ts[h.slot(h.count-1)] {
		h.obsDropped.Inc()
		return false
	}
	tag, ok := h.tagLocked(info)
	if !ok {
		h.obsDropped.Inc()
		return false
	}
	if h.count == h.capacity {
		if h.onEvict != nil {
			// Deliver under the lock so evictions stay timestamp-ordered.
			h.onEvict(h.infoAt(h.head))
		}
		h.head = h.slot(1)
		h.count--
		h.evicted++
		h.obsEvicted.Inc()
	} else if h.count == len(h.ts) {
		// Still filling: head is 0 and nothing was evicted, so the
		// columns copy over in order. make, not append, which would round
		// the last growth up past the capacity.
		n := min(max(2*h.count, 256), h.capacity)
		h.ts, h.val, h.tag = grown(h.ts, n), grown(h.val, n), grown(h.tag, n)
	}
	s := h.slot(h.count)
	h.ts[s], h.val[s], h.tag[s] = info.Timestamp, info.Value, tag
	h.count++
	return true
}

// tagLocked returns the tag naming info's metric, kind and source, adding
// the metric to h.names on first sight. Caller holds h.mu for writing.
func (h *History) tagLocked(info telemetry.Info) (uint16, bool) {
	if info.Kind > telemetry.KindInsight || info.Source > telemetry.Predicted {
		return 0, false
	}
	i, ok := h.last, len(h.names) > 0 && h.names[h.last] == info.Metric
	if !ok {
		i, ok = h.index[info.Metric]
	}
	if !ok {
		if len(h.names) > nameMask {
			return 0, false
		}
		i = uint16(len(h.names))
		h.names = append(h.names, info.Metric)
		h.index[info.Metric] = i
	}
	h.last = i
	return i | uint16(info.Kind)<<kindShift | uint16(info.Source)<<sourceShift, true
}

// grown returns s copied into a new slice of exactly n elements.
func grown[T any](s []T, n int) []T {
	g := make([]T, n)
	copy(g, s)
	return g
}

// slot returns the buffer index of the i-th oldest entry.
func (h *History) slot(i int) int {
	return (h.head + i) % h.capacity
}

// infoAt rebuilds the tuple in buffer slot s. Caller holds h.mu.
func (h *History) infoAt(s int) telemetry.Info {
	tag := h.tag[s]
	return telemetry.Info{
		Metric:    h.names[tag&nameMask],
		Timestamp: h.ts[s],
		Value:     h.val[s],
		Kind:      telemetry.Kind(tag >> kindShift & 1),
		Source:    telemetry.Source(tag >> sourceShift),
	}
}

// Latest returns the newest entry, reporting false when empty. This is the
// hot path for middleware queries (SELECT MAX(Timestamp), metric FROM t).
func (h *History) Latest() (telemetry.Info, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.count == 0 {
		return telemetry.Info{}, false
	}
	return h.infoAt(h.slot(h.count - 1)), true
}

// Bounds returns the oldest and newest retained timestamps, reporting false
// when the window is empty. Callers that only need the retention horizon
// (e.g. to decide whether a range query must spill to the archive) use this
// instead of copying the whole window out.
func (h *History) Bounds() (oldest, newest int64, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.count == 0 {
		return 0, 0, false
	}
	return h.ts[h.head], h.ts[h.slot(h.count-1)], true
}

// Floor returns the oldest retained timestamp (ok is false when the window is
// empty) and the eviction epoch: how many entries the window has displaced so
// far. A reader that pairs the window with the store evictions go to reads
// both at one instant here and hands the epoch back to RangeFuncAt.
func (h *History) Floor() (oldest int64, epoch uint64, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.count == 0 {
		return 0, h.evicted, false
	}
	return h.ts[h.head], h.evicted, true
}

// boundsLocked returns the logical index window [lo, hi) of entries with
// Timestamp in [from, to]. Caller holds h.mu.
func (h *History) boundsLocked(from, to int64) (lo, hi int) {
	if h.count == 0 || from > to {
		return 0, 0
	}
	lo = sort.Search(h.count, func(i int) bool { return h.ts[h.slot(i)] >= from })
	hi = sort.Search(h.count, func(i int) bool { return h.ts[h.slot(i)] > to })
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// RangeFunc visits every entry with Timestamp in [from, to], oldest first,
// under the read lock and without allocating. fn returns false to stop the
// scan early. fn must be fast and must not call back into the History
// (readers block writers for the duration of the scan).
func (h *History) RangeFunc(from, to int64, fn func(telemetry.Info) bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	h.scanLocked(from, to, fn)
}

// RangeFuncAt is RangeFunc for a reader that saw the window at eviction epoch
// `epoch` (see Floor): it scans only if nothing has been evicted since — so
// what the reader took from the eviction store and what it finds here are
// two halves of one instant — and reports whether it did.
func (h *History) RangeFuncAt(epoch uint64, from, to int64, fn func(telemetry.Info) bool) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.evicted != epoch {
		return false
	}
	h.scanLocked(from, to, fn)
	return true
}

func (h *History) scanLocked(from, to int64, fn func(telemetry.Info) bool) {
	lo, hi := h.boundsLocked(from, to)
	s := h.slot(lo)
	for n := hi - lo; n > 0; n-- {
		if !fn(h.infoAt(s)) {
			return
		}
		if s++; s == len(h.ts) {
			s = 0
		}
	}
}
