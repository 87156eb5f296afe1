// Package obs is Apollo's observability substrate: a stdlib-only metrics
// registry of atomic counters, gauges, and fixed-bucket histograms with
// snapshot semantics. Every subsystem on the hot path — the stream fabric,
// SCoRe vertices, the in-memory queues, the archiver, the query engine and
// the gateway — registers its instruments here so drop counts, publish
// latencies and backlog sizes are visible outside tests (REGAL-style
// registry-driven introspection), and a count only the registry reports is
// kept nowhere else.
//
// Design rules:
//
//   - Instruments are lock-free after creation (single atomic op per event)
//     so instrumenting a hot path costs nanoseconds.
//   - All instrument methods are nil-receiver safe no-ops, so components can
//     hold optional instrument handles without branching at every call site.
//   - Names follow the Prometheus convention <subsystem>_<what>[_total];
//     per-metric instruments append labels via Name (e.g.
//     score_tuples_out_total{metric="node1.nvme0.capacity"}).
//   - Snapshot returns a coherent point-in-time copy; the text exposition in
//     http.go serializes a snapshot in the Prometheus text format.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. A nil Counter is a no-op.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. A nil Gauge is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefLatencyBuckets are the default histogram bounds for latencies, in
// seconds: 1µs .. 10s in decades.
var DefLatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Histogram is a fixed-bucket histogram. Observations land in the first
// bucket whose upper bound is >= the value; values above every bound land in
// the implicit +Inf bucket. A nil Histogram is a no-op.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v. A scan over the handful of bounds beats a binary
	// search, and NaN, which no bound is >= of, lands in +Inf.
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets are
// cumulative (Prometheus "le" semantics); the +Inf bucket equals Count.
type HistogramSnapshot struct {
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	UpperBound float64 // math.Inf(1) for the last bucket
	Count      uint64  // observations <= UpperBound
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]Bucket, len(h.bounds)+1)}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// Registry holds named instruments. Instrument lookup/creation takes a lock;
// the returned handles are lock-free. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil Registry returns nil (a no-op instrument).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (empty bounds mean
// DefLatencyBuckets). Later calls return the existing histogram regardless
// of bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a coherent point-in-time copy of every registered instrument,
// keyed by full instrument name (including labels).
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the snapshotted value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the snapshotted value of the named gauge (0 if absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Snapshot copies every instrument's current value. A nil Registry returns
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Name builds a labelled instrument name: Name("x_total", "metric", "m") is
// `x_total{metric="m"}`. Label values are escaped per the Prometheus text
// format. kv must alternate key, value; a trailing odd key is ignored.
func Name(base string, kv ...string) string {
	if len(kv) < 2 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// splitName separates a full instrument name into its base and label block
// (`x{a="b"}` -> `x`, `a="b"`). Labels are empty when the name is plain.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}
