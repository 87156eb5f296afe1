package score

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Builder computes an Insight value from the latest tuple of every input
// stream. It is called whenever any input updates, once all inputs have been
// seen at least once.
type Builder func(inputs map[telemetry.MetricID]telemetry.Info) float64

// Aggregations commonly used as Builders.

// Sum adds the latest values of all inputs (e.g. total remaining capacity).
func Sum(inputs map[telemetry.MetricID]telemetry.Info) float64 {
	s := 0.0
	for _, in := range inputs {
		s += in.Value
	}
	return s
}

// Mean averages the latest values of all inputs.
func Mean(inputs map[telemetry.MetricID]telemetry.Info) float64 {
	if len(inputs) == 0 {
		return 0
	}
	return Sum(inputs) / float64(len(inputs))
}

// Min returns the smallest latest value.
func Min(inputs map[telemetry.MetricID]telemetry.Info) float64 {
	first := true
	m := 0.0
	for _, in := range inputs {
		if first || in.Value < m {
			m = in.Value
			first = false
		}
	}
	return m
}

// Max returns the largest latest value.
func Max(inputs map[telemetry.MetricID]telemetry.Info) float64 {
	first := true
	m := 0.0
	for _, in := range inputs {
		if first || in.Value > m {
			m = in.Value
			first = false
		}
	}
	return m
}

// InsightConfig configures an Insight Vertex.
type InsightConfig struct {
	// Metric names the produced insight stream (required).
	Metric telemetry.MetricID
	// Inputs are the upstream Fact/Insight streams (required, >= 1).
	Inputs []telemetry.MetricID
	// Builder derives the insight (required).
	Builder Builder
	// Bus carries both subscriptions and the published insight (required).
	Bus stream.Bus
	// Clock stamps derived insights; nil means the wall clock. Inject a
	// *sim.Virtual to run the vertex on deterministic simulated time.
	Clock sim.Clock
	// HistorySize bounds the in-memory queue (default 4096).
	HistorySize int
	// Archive, if non-nil, receives evicted entries.
	Archive *archive.Log
	// PublishUnchanged disables the only-if-changed filter.
	PublishUnchanged bool
	// BufferSize bounds the store-and-forward backlog kept while the
	// broker is unreachable (default: HistorySize).
	BufferSize int
	// FailAfter is how many consecutive publish errors flip the vertex
	// health from Degraded to Failed (default DefaultFailAfter).
	FailAfter int
	// Obs, if non-nil, receives the vertex instruments (tuples in/out,
	// backlog, flush latency, queue evictions), labelled by metric.
	Obs *obs.Registry
}

// InsightVertex is a SCoRe inner/sink vertex: it subscribes to its input
// streams, rebuilds its insight whenever any input changes (Insight
// Builder), and publishes the result onto its own queue.
type InsightVertex struct {
	cfg     InsightConfig
	history *queue.History
	stats   Stats
	pub     *BufferedPublisher

	obsTuplesIn  *obs.Counter // upstream entries decoded
	obsTuplesOut *obs.Counter // insights accepted by the publish path

	onePayload [1][]byte // the insight's batch of one; consumer goroutine only

	mu      sync.Mutex
	latest  map[telemetry.MetricID]telemetry.Info
	last    float64
	hasLast bool
	running bool
	cancel  context.CancelFunc
	done    chan struct{}
}

// NewInsightVertex builds an Insight Vertex.
func NewInsightVertex(cfg InsightConfig) (*InsightVertex, error) {
	if cfg.Metric == "" || len(cfg.Inputs) == 0 || cfg.Builder == nil || cfg.Bus == nil {
		return nil, fmt.Errorf("%w: metric, inputs, builder and bus are required", ErrVertexConfig)
	}
	cfg.Clock = sim.Or(cfg.Clock)
	if cfg.HistorySize <= 0 {
		cfg.HistorySize = 4096
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = cfg.HistorySize
	}
	v := &InsightVertex{cfg: cfg, latest: make(map[telemetry.MetricID]telemetry.Info, len(cfg.Inputs))}
	v.pub = newPubBuffer(cfg.Bus, string(cfg.Metric), cfg.BufferSize, cfg.FailAfter, &v.stats, cfg.Clock)
	var onEvict func(telemetry.Info)
	if cfg.Archive != nil {
		onEvict = func(i telemetry.Info) { _ = cfg.Archive.Append(i) }
	}
	v.history = queue.NewHistory(cfg.HistorySize, onEvict)
	if r := cfg.Obs; r != nil {
		m := string(cfg.Metric)
		v.obsTuplesIn = r.Counter(obs.Name("score_tuples_in_total", "metric", m))
		v.obsTuplesOut = r.Counter(obs.Name("score_tuples_out_total", "metric", m))
		v.pub.instrument(r, m)
		v.history.Instrument(
			r.Counter(obs.Name("queue_history_evictions_total", "metric", m)),
			r.Counter(obs.Name("queue_history_drops_total", "metric", m)),
		)
	}
	return v, nil
}

// Metric implements Executor.
func (v *InsightVertex) Metric() telemetry.MetricID { return v.cfg.Metric }

// Stats returns the operation-anatomy counters.
func (v *InsightVertex) Stats() StatsSnapshot { return v.stats.Snapshot() }

// Health reports the publish-path health (see FactVertex.Health).
func (v *InsightVertex) Health() HealthSnapshot { return v.pub.snapshot() }

// Start subscribes to all inputs and launches the consumer goroutine.
func (v *InsightVertex) Start() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.running {
		return fmt.Errorf("score: insight vertex %s already running", v.cfg.Metric)
	}
	ctx, cancel := context.WithCancel(context.Background())
	chans := make([]<-chan stream.Entry, 0, len(v.cfg.Inputs))
	for _, in := range v.cfg.Inputs {
		ch, err := v.cfg.Bus.Subscribe(ctx, string(in), 0)
		if err != nil {
			cancel()
			return fmt.Errorf("score: subscribing %s to %s: %w", v.cfg.Metric, in, err)
		}
		chans = append(chans, ch)
	}
	v.cancel = cancel
	v.done = make(chan struct{})
	v.running = true

	// Merge all input subscriptions into one channel so the vertex remains
	// a single-goroutine actor.
	merged := make(chan stream.Entry, 64)
	var wg sync.WaitGroup
	for _, ch := range chans {
		wg.Add(1)
		go func(ch <-chan stream.Entry) {
			defer wg.Done()
			for e := range ch {
				select {
				case merged <- e:
				case <-ctx.Done():
					return
				}
			}
		}(ch)
	}
	go func() {
		wg.Wait()
		close(merged)
	}()
	go v.run(ctx, merged)
	return nil
}

// Stop terminates the vertex.
func (v *InsightVertex) Stop() {
	v.mu.Lock()
	if !v.running {
		v.mu.Unlock()
		return
	}
	v.running = false
	cancel, done := v.cancel, v.done
	v.mu.Unlock()
	cancel()
	<-done
}

func (v *InsightVertex) run(ctx context.Context, merged <-chan stream.Entry) {
	defer close(v.done)
	for {
		select {
		case <-ctx.Done():
			return
		case e, ok := <-merged:
			if !ok {
				return
			}
			v.consume(ctx, e)
		}
	}
}

// consume processes one upstream entry.
func (v *InsightVertex) consume(ctx context.Context, e stream.Entry) {
	// Anatomy timings use wall time (see FactVertex.pollOnce).
	t0 := time.Now()
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		v.stats.errors.Add(1)
		return
	}
	v.obsTuplesIn.Inc()
	v.mu.Lock()
	v.latest[in.Metric] = in
	ready := len(v.latest) == len(v.cfg.Inputs)
	var inputs map[telemetry.MetricID]telemetry.Info
	if ready {
		inputs = make(map[telemetry.MetricID]telemetry.Info, len(v.latest))
		for k, val := range v.latest {
			inputs[k] = val
		}
	}
	v.mu.Unlock()
	t1 := time.Now()
	v.stats.addBuild(t1.Sub(t0))
	if !ready {
		return
	}

	// Insight Builder: combine the latest inputs.
	value := v.cfg.Builder(inputs)
	// An insight derived from any predicted input is itself predicted.
	src := telemetry.Measured
	for _, i := range inputs {
		if i.Source == telemetry.Predicted {
			src = telemetry.Predicted
			break
		}
	}
	ts := v.cfg.Clock.Now().UnixNano()
	if in.Timestamp > ts {
		ts = in.Timestamp // predicted inputs may carry future stamps
	}
	t2 := time.Now()
	v.stats.addOther(t2.Sub(t1))
	v.stats.polls.Add(1)

	v.mu.Lock()
	changed := !v.hasLast || value != v.last
	v.last, v.hasLast = value, true
	v.mu.Unlock()
	if !changed && !v.cfg.PublishUnchanged {
		v.stats.suppressed.Add(1)
		return
	}
	info := telemetry.Info{Metric: v.cfg.Metric, Timestamp: ts, Value: value, Kind: telemetry.KindInsight, Source: src}
	if payload, err := info.MarshalBinary(); err == nil {
		v.onePayload[0] = payload
		if v.pub.publish(ctx, v.onePayload[:]) {
			v.history.Append(info)
			v.stats.published.Add(1)
			v.obsTuplesOut.Inc()
			if src == telemetry.Predicted {
				v.stats.predicted.Add(1)
			}
		} else {
			v.stats.errors.Add(1)
		}
	}
	v.stats.addPublish(time.Since(t2))
}

// ConsumeOnce is exposed for deterministic tests: it feeds one entry through
// the insight pipeline synchronously.
func (v *InsightVertex) ConsumeOnce(e stream.Entry) { v.consume(context.Background(), e) }

// Latest implements Executor.
func (v *InsightVertex) Latest() (telemetry.Info, bool) { return v.history.Latest() }

// Range implements Executor.
func (v *InsightVertex) Range(from, to int64) []telemetry.Info {
	return rangeWithArchive(v.history, v.cfg.Archive, from, to)
}

// ScanRange implements Scanner: the zero-copy streaming counterpart of Range.
func (v *InsightVertex) ScanRange(from, to int64, fn func(telemetry.Info) bool) {
	scanWithArchive(v.history, v.cfg.Archive, from, to, fn)
}
