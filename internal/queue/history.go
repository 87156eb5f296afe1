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

// History is a bounded, timestamp-ordered window of the most recent
// Information tuples of one metric. The SCoRe Query Executor parses it with
// timestamp-based indexing (binary search); entries evicted from the window
// are handed to an eviction callback so the Archiver can persist them.
//
// Writers must append tuples in non-decreasing timestamp order (Facts are
// ordered by timestamp, making them linearizable — §3.1 of the paper).
type History struct {
	mu      sync.RWMutex
	buf     []telemetry.Info
	head    int // index of oldest entry
	count   int
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
	return &History{buf: make([]telemetry.Info, capacity), onEvict: onEvict}
}

// Instrument attaches obs counters for evictions and rejected (out-of-order)
// appends. Pass nil for either to skip it.
func (h *History) Instrument(evicted, dropped *obs.Counter) {
	h.mu.Lock()
	h.obsEvicted, h.obsDropped = evicted, dropped
	h.mu.Unlock()
}

// Append adds info to the window. Appends whose timestamp precedes the
// newest stored entry are rejected (the queue is timestamp-linearized) and
// counted on the instrument; Append reports whether the entry was stored.
//
// The eviction callback runs under the History lock (see NewHistory): it was
// previously invoked after unlock, which let two concurrent appenders hand
// evicted tuples to the archiver out of timestamp order.
func (h *History) Append(info telemetry.Info) bool {
	h.mu.Lock()
	if h.count > 0 {
		newest := h.buf[(h.head+h.count-1)%len(h.buf)]
		if info.Timestamp < newest.Timestamp {
			h.obsDropped.Inc()
			h.mu.Unlock()
			return false
		}
	}
	if h.count == len(h.buf) {
		evicted := h.buf[h.head]
		h.head = (h.head + 1) % len(h.buf)
		h.count--
		h.evicted++
		h.obsEvicted.Inc()
		if h.onEvict != nil {
			// Deliver under the lock so evictions stay timestamp-ordered.
			h.onEvict(evicted)
		}
	}
	h.buf[(h.head+h.count)%len(h.buf)] = info
	h.count++
	h.mu.Unlock()
	return true
}

// Latest returns the newest entry, reporting false when empty. This is the
// hot path for middleware queries (SELECT MAX(Timestamp), metric FROM t).
func (h *History) Latest() (telemetry.Info, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.count == 0 {
		return telemetry.Info{}, false
	}
	return h.buf[(h.head+h.count-1)%len(h.buf)], true
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
	oldest = h.buf[h.head].Timestamp
	newest = h.buf[(h.head+h.count-1)%len(h.buf)].Timestamp
	return oldest, newest, true
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
	return h.buf[h.head].Timestamp, h.evicted, true
}

// at returns the i-th oldest entry. Caller holds h.mu.
func (h *History) at(i int) telemetry.Info {
	return h.buf[(h.head+i)%len(h.buf)]
}

// boundsLocked returns the logical index window [lo, hi) of entries with
// Timestamp in [from, to]. Caller holds h.mu.
func (h *History) boundsLocked(from, to int64) (lo, hi int) {
	if h.count == 0 || from > to {
		return 0, 0
	}
	lo = sort.Search(h.count, func(i int) bool { return h.at(i).Timestamp >= from })
	hi = sort.Search(h.count, func(i int) bool { return h.at(i).Timestamp > to })
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// spansLocked maps the logical window [lo, hi) onto the at most two
// contiguous slices of the ring buffer that back it, oldest span first.
// Caller holds h.mu.
func (h *History) spansLocked(lo, hi int) (a, b []telemetry.Info) {
	n := hi - lo
	if n <= 0 {
		return nil, nil
	}
	start := h.head + lo
	if start >= len(h.buf) {
		start -= len(h.buf)
	}
	first := len(h.buf) - start
	if first >= n {
		return h.buf[start : start+n], nil
	}
	return h.buf[start:], h.buf[:n-first]
}

// RangeFunc visits every entry with Timestamp in [from, to], oldest first,
// under the read lock and without copying. fn returns false to stop the scan
// early. fn must be fast and must not call back into the History (readers
// block writers for the duration of the scan); callers that need ownership
// of the entries copy them.
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
	a, b := h.spansLocked(lo, hi)
	for i := range a {
		if !fn(a[i]) {
			return
		}
	}
	for i := range b {
		if !fn(b[i]) {
			return
		}
	}
}
