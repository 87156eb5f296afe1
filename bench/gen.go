package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The benchmark's only part in ingest is the hook each Fact vertex polls:
// the vertex is the closed loop (poll, publish, wait P), the hook hands it
// the next value of a seeded trace and notes when it was asked.

const (
	traceLen    = 4096 // samples per trace; hooks wrap around
	repeatShare = 0.25 // share of samples equal to their predecessor
	gapHooks    = 16   // hooks that keep per-poll gap samples
)

// window is the measured interval, in unix nanoseconds. Samples belong to it
// by the creation time of the tuple or request, not by when they finish.
type window struct{ start, end atomic.Int64 }

func (w *window) set(from time.Time, d time.Duration) {
	w.end.Store(from.Add(d).UnixNano())
	w.start.Store(from.UnixNano())
}

func (w *window) contains(ts int64) bool {
	s := w.start.Load()
	return s != 0 && ts >= s && ts < w.end.Load()
}

// gate lets the harness quiesce the vertices before it stops them. Stopping
// a vertex cancels the context of a publish it may have in flight, and over
// the fabric a cancelled publish can reach one follower and not the other.
// So the harness first closes the gate: every poll then waits in the hook,
// in-flight publishes finish under a live context, and once the gate is
// released the waiting polls fail without publishing.
type gate struct {
	closed  atomic.Bool
	release chan struct{}
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

var errHalted = errors.New("bench: run over")

// wait blocks a poll while the gate is closed; it reports whether the poll
// must fail.
func (g *gate) wait() bool {
	if !g.closed.Load() {
		return false
	}
	<-g.release
	return true
}

// makeTrace builds one hook's values: a random walk in which a quarter of
// the samples repeat their predecessor, so the vertex's only-if-changed
// filter suppresses a known share.
func makeTrace(seed int64, hook int) []float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(hook)))
	vals := make([]float64, traceLen)
	v := 1000 + 100*rng.Float64()
	for i := range vals {
		if i > 0 && rng.Float64() < repeatShare {
			vals[i] = v
			continue
		}
		v += rng.NormFloat64()
		vals[i] = v
	}
	return vals
}

// capture is one polled sample kept for the replay part of a traced run.
type capture struct {
	ts    int64
	value float64
}

// traceHook is a score.Hook. Poll runs on its vertex's goroutine only;
// counters are atomic because the harness reads them while it runs.
type traceHook struct {
	id     telemetry.MetricID
	vals   []float64
	period time.Duration
	win    *window
	gate   *gate

	pos      int
	last     float64
	lastPoll int64

	polls   atomic.Uint64 // polls inside the window
	repeats atomic.Uint64 // of those, values equal to the previous poll's
	allPoll atomic.Uint64 // polls since the hook was made
	allRep  atomic.Uint64

	gaps     []int64   // inter-poll gap minus period, ns; nil unless sampled
	captured []capture // nil unless tracing
}

func (h *traceHook) Metric() telemetry.MetricID { return h.id }

func (h *traceHook) Poll() (float64, error) {
	if h.gate.wait() {
		h.allPoll.Add(1)
		return 0, errHalted
	}
	now := time.Now().UnixNano()
	v := h.vals[h.pos]
	h.pos = (h.pos + 1) % len(h.vals)
	rep := h.allPoll.Add(1) > 1 && v == h.last
	if rep {
		h.allRep.Add(1)
	}
	if h.win.contains(now) {
		h.polls.Add(1)
		if rep {
			h.repeats.Add(1)
		}
		if h.gaps != nil && h.lastPoll != 0 && len(h.gaps) < cap(h.gaps) {
			h.gaps = append(h.gaps, now-h.lastPoll-int64(h.period))
		}
		if h.captured != nil && len(h.captured) < cap(h.captured) {
			h.captured = append(h.captured, capture{now, v})
		}
	}
	h.last, h.lastPoll = v, now
	return v, nil
}

// probeHook's value is its own poll time (ns since the run's epoch, exact in
// a float64), so a reader downstream of any number of vertices can tell how
// old the sample it carries is.
type probeHook struct {
	id    telemetry.MetricID
	epoch time.Time
	gate  *gate
}

func (h *probeHook) Metric() telemetry.MetricID { return h.id }

func (h *probeHook) Poll() (float64, error) {
	if h.gate.wait() {
		return 0, errHalted
	}
	return float64(time.Since(h.epoch)), nil
}

// Query kinds of the query-mixed workload.
const (
	kindLatest = iota
	kindWindow
	kindDeep
	kindUnion
	numKinds
)

var kindNames = [numKinds]string{"latest", "window", "deep", "union"}

const (
	unionBranches = 16
	windowSpan    = time.Second
	windowLag     = 500 * time.Millisecond
	deepSpan      = 5 * time.Second
	// The history ring of query-mixed holds about 2.9 s (512 tuples at ~180/s,
	// more when polls run late). A range that straddles the ring's oldest
	// entry can miss the tuples evicted while the archive half is scanned, so
	// deep ranges end well before it.
	deepLag = 4 * time.Second
)

// queryPick is one draw from the mix: what to ask and about which metric.
// The text of window and deep queries carries literal timestamps and is made
// when the request is sent.
type queryPick struct {
	kind   int
	metric int
}

// queryMix draws the seeded request sequence of one client: 50 % latest,
// 30 % window, 15 % deep, 5 % union.
type queryMix struct {
	rng     *rand.Rand
	metrics int
}

func newQueryMix(seed int64, client, metrics int) *queryMix {
	return &queryMix{rng: rand.New(rand.NewSource(seed*7_919 + int64(client) + 1)), metrics: metrics}
}

func (m *queryMix) next() queryPick {
	p := queryPick{metric: m.rng.Intn(m.metrics)}
	switch x := m.rng.Float64(); {
	case x < 0.50:
		p.kind = kindLatest
	case x < 0.80:
		p.kind = kindWindow
	case x < 0.95:
		p.kind = kindDeep
	default:
		p.kind = kindUnion
	}
	return p
}

func factName(i int) string { return fmt.Sprintf("f%03d", i) }

const aggSelect = "SELECT COUNT(*), AVG(metric), MAX(metric) FROM "

// sqlFor renders a pick. now anchors the window and deep ranges; from/to are
// returned so the answer can be checked against the subscription log.
func sqlFor(p queryPick, metrics int, now int64) (sql string, from, to int64) {
	switch p.kind {
	case kindLatest:
		return "SELECT MAX(Timestamp), metric FROM " + factName(p.metric), 0, 0
	case kindWindow:
		to = now - int64(windowLag)
		from = to - int64(windowSpan)
	case kindDeep:
		to = now - int64(deepLag)
		from = to - int64(deepSpan)
	case kindUnion:
		var b strings.Builder
		for i := 0; i < unionBranches; i++ {
			if i > 0 {
				b.WriteString(" UNION ")
			}
			b.WriteString("SELECT MAX(Timestamp), metric FROM ")
			b.WriteString(factName((p.metric + i) % metrics))
		}
		return b.String(), 0, 0
	}
	return fmt.Sprintf("%s%s WHERE Timestamp BETWEEN %d AND %d", aggSelect, factName(p.metric), from, to), from, to
}
