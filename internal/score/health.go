package score

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// HealthState classifies a vertex's publish path.
type HealthState int

const (
	// HealthOK: publishing normally, no backlog.
	HealthOK HealthState = iota
	// HealthDegraded: recent publish errors or a store-and-forward backlog
	// awaiting broker recovery.
	HealthDegraded
	// HealthFailed: at least FailAfter consecutive publish errors.
	HealthFailed
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthFailed:
		return "failed"
	default:
		return "health(?)"
	}
}

// DefaultFailAfter is how many consecutive publish errors turn a vertex
// from Degraded to Failed.
const DefaultFailAfter = 8

// HealthSnapshot is a point-in-time view of one vertex's
// publish-path health, surfaced through Graph.Health and core.Service.Health
// so operators and the AQE can see degradation.
type HealthSnapshot struct {
	State             HealthState
	ConsecutiveErrors uint64
	// Buffered is the store-and-forward backlog awaiting flush.
	Buffered int
	// Dropped counts tuples evicted from a full backlog (oldest first).
	Dropped   uint64
	LastError string
	// LastFlush is the wall-clock timestamp (UnixNano) of the last
	// successful backlog flush after an outage; 0 if a flush was never
	// needed.
	LastFlush int64
	// Epoch is the metric topic's replication epoch when the service runs in
	// a broker fabric (0 standalone): it increments on every leader change.
	Epoch uint64
	// ReplicaLag is how many entries the slowest follower trails the topic
	// leader by, filled in by core.Service.Health on the leader node. A lag
	// above the service's ReplicaLagMax marks the metric Degraded.
	ReplicaLag uint64
}

// buffered is one backlogged tuple awaiting flush.
type buffered struct {
	topic   string
	payload []byte
}

// BufferedPublisher is the store-and-forward publish stage shared by Fact
// and Insight vertices, and the third publish surface unified behind
// stream.Publisher (next to Broker and Client). It publishes through the
// underlying Publisher; when the broker is unreachable (transient transport
// errors) it buffers tuples locally, bounded by cap, and flushes them in
// order — batched per consecutive same-topic run — ahead of the next tuple
// once the broker recovers, so a broker outage degrades the vertex instead
// of dropping data. Terminal errors (closed broker, empty payload) are not
// buffered: retrying them cannot succeed.
//
// PublishBatch return semantics: (id, nil) means delivered, (0, nil) means
// accepted into the backlog for a later flush, and a non-nil error means
// terminally rejected.
type BufferedPublisher struct {
	bus       stream.Publisher
	topic     string // default topic used by the vertex helpers
	cap       int
	failAfter uint64
	stats     *Stats
	clock     sim.Clock // stamps LastFlush and times backlog drains

	mu        sync.Mutex
	backlog   []buffered
	consec    uint64
	dropped   uint64
	lastErr   string
	lastFlush int64

	// Optional obs instruments (nil-safe no-ops when not instrumented).
	obsPublished *obs.Counter   // tuples delivered to the broker (incl. flushes)
	obsBuffered  *obs.Counter   // tuples buffered through outages
	obsDropped   *obs.Counter   // tuples evicted from a full backlog
	obsBacklog   *obs.Gauge     // current backlog depth
	obsFlush     *obs.Histogram // wall time of successful backlog drains
}

var _ stream.Publisher = (*BufferedPublisher)(nil)

// newPubBuffer wraps bus with store-and-forward buffering for topic.
// capacity bounds the backlog (<=0: 4096); failAfter sets how many
// consecutive errors flip Health to Failed (<=0: DefaultFailAfter).
func newPubBuffer(bus stream.Publisher, topic string, capacity, failAfter int, stats *Stats, clock sim.Clock) *BufferedPublisher {
	if capacity <= 0 {
		capacity = 4096
	}
	if failAfter <= 0 {
		failAfter = DefaultFailAfter
	}
	return &BufferedPublisher{
		bus: bus, topic: topic, cap: capacity, failAfter: uint64(failAfter),
		stats: stats, clock: sim.Or(clock),
	}
}

// instrument registers the publish-path instruments on r, labelled by metric.
// Call before the vertex starts.
func (p *BufferedPublisher) instrument(r *obs.Registry, metric string) {
	p.mu.Lock()
	p.obsPublished = r.Counter(obs.Name("score_published_total", "metric", metric))
	p.obsBuffered = r.Counter(obs.Name("score_buffered_total", "metric", metric))
	p.obsDropped = r.Counter(obs.Name("score_backlog_dropped_total", "metric", metric))
	p.obsBacklog = r.Gauge(obs.Name("score_backlog", "metric", metric))
	p.obsFlush = r.Histogram(obs.Name("score_flush_seconds", "metric", metric), obs.DefLatencyBuckets...)
	p.mu.Unlock()
}

// Health reports the publish-path health.
func (p *BufferedPublisher) Health() HealthSnapshot { return p.snapshot() }

// PublishBatch implements stream.Publisher: the whole batch is delivered in
// one append — after any backlog flush, so stream order is preserved across
// outages — or buffered in order as a unit. Buffering copies the payloads, so
// callers may reuse both them and the outer slice once the call returns.
func (p *BufferedPublisher) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.flushLocked(ctx); err != nil {
		return 0, p.failLocked(err, topic, payloads)
	}
	first, err := p.bus.PublishBatch(ctx, topic, payloads)
	if err != nil {
		return 0, p.failLocked(err, topic, payloads)
	}
	p.okLocked(len(payloads))
	return first, nil
}

// publish delivers payloads on the default topic, reporting whether they
// were accepted — delivered to the broker or buffered for a later flush.
func (p *BufferedPublisher) publish(ctx context.Context, payloads [][]byte) bool {
	_, err := p.PublishBatch(ctx, p.topic, payloads)
	return err == nil
}

// okLocked resets the error streak after n tuples landed.
func (p *BufferedPublisher) okLocked(n int) {
	p.consec, p.lastErr = 0, ""
	p.obsPublished.Add(uint64(n))
	p.obsBacklog.Set(float64(len(p.backlog)))
}

// flushLocked drains the backlog in order, one PublishBatch per consecutive
// same-topic run, and stamps LastFlush when it empties the backlog.
func (p *BufferedPublisher) flushLocked(ctx context.Context) error {
	if len(p.backlog) == 0 {
		return nil
	}
	start := p.clock.Now()
	for len(p.backlog) > 0 {
		run := 1
		for run < len(p.backlog) && p.backlog[run].topic == p.backlog[0].topic {
			run++
		}
		payloads := make([][]byte, run)
		for i := 0; i < run; i++ {
			payloads[i] = p.backlog[i].payload
		}
		if _, err := p.bus.PublishBatch(ctx, p.backlog[0].topic, payloads); err != nil {
			return err
		}
		p.backlog = p.backlog[run:]
		p.stats.flushed.Add(uint64(run))
		p.obsPublished.Add(uint64(run))
	}
	now := p.clock.Now()
	p.lastFlush = now.UnixNano()
	p.obsFlush.ObserveDuration(now.Sub(start))
	return nil
}

// failLocked classifies err: transient errors buffer the tuples (oldest
// evicted past cap) and report acceptance (nil); terminal errors are
// returned to the caller unbuffered.
func (p *BufferedPublisher) failLocked(err error, topic string, payloads [][]byte) error {
	p.consec++
	p.lastErr = err.Error()
	if !stream.IsTransient(err) {
		return err
	}
	for _, payload := range payloads {
		// A private copy: vertices encode into buffers their next poll or run
		// overwrites, and the backlog outlives both.
		p.backlog = append(p.backlog, buffered{topic: topic, payload: append([]byte(nil), payload...)})
		p.stats.buffered.Add(1)
		p.obsBuffered.Inc()
		if len(p.backlog) > p.cap {
			p.backlog = p.backlog[1:]
			p.dropped++
			p.stats.backlogDropped.Add(1)
			p.obsDropped.Inc()
		}
	}
	p.obsBacklog.Set(float64(len(p.backlog)))
	return nil
}

func (p *BufferedPublisher) snapshot() HealthSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := HealthSnapshot{
		ConsecutiveErrors: p.consec,
		Buffered:          len(p.backlog),
		Dropped:           p.dropped,
		LastError:         p.lastErr,
		LastFlush:         p.lastFlush,
	}
	switch {
	case p.consec >= p.failAfter:
		h.State = HealthFailed
	case p.consec > 0 || len(p.backlog) > 0:
		h.State = HealthDegraded
	default:
		h.State = HealthOK
	}
	return h
}
