package score

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Builder computes an Insight value from the latest tuple of every input
// stream. It is called whenever any input updates, once all inputs have been
// seen at least once, one call at a time per vertex. inputs[i] is the latest
// tuple of InsightConfig.Inputs[i], so a Builder that folds in slice order
// gives the same float64 for the same inputs every time. The slice is the
// vertex's own working state, passed without a copy: it is valid for the
// duration of the call only, and a Builder must neither retain nor modify it.
type Builder func(inputs []telemetry.Info) float64

// Aggregations commonly used as Builders.

// Sum adds the latest values of all inputs, in Inputs order (e.g. total
// remaining capacity).
func Sum(inputs []telemetry.Info) float64 {
	s := 0.0
	for i := range inputs {
		s += inputs[i].Value
	}
	return s
}

// Max returns the largest latest value.
func Max(inputs []telemetry.Info) float64 {
	m := 0.0
	for i := range inputs {
		if i == 0 || inputs[i].Value > m {
			m = inputs[i].Value
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
	// HistorySize bounds the in-memory queue and the store-and-forward
	// backlog kept while the broker is unreachable (default 4096).
	HistorySize int
	// PublishUnchanged disables the only-if-changed filter.
	PublishUnchanged bool
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
	vertex
	cfg InsightConfig

	// The vertex is an actor behind act: whichever input goroutine (or
	// ConsumeOnce caller) holds it derives the insights of its run of entries
	// and publishes them. Everything down to mu is touched only under act.
	act       sync.Mutex
	latest    []telemetry.Info // by position in cfg.Inputs; handed to the Builder in place
	seen      int              // slots of latest filled (an unseen slot's Metric is "")
	predicted int              // inputs whose latest tuple is Predicted
	last      float64
	hasLast   bool
	// The run's insights, their encodings back to back, and the views of
	// those handed to PublishBatch; reused across runs.
	outs     []telemetry.Info
	buf      []byte
	payloads [][]byte
}

// NewInsightVertex builds an Insight Vertex.
func NewInsightVertex(cfg InsightConfig) (*InsightVertex, error) {
	if cfg.Metric == "" || len(cfg.Inputs) == 0 || cfg.Builder == nil || cfg.Bus == nil {
		return nil, fmt.Errorf("%w: metric, inputs, builder and bus are required", ErrVertexConfig)
	}
	for i, in := range cfg.Inputs {
		if in == "" || slices.Contains(cfg.Inputs[:i], in) {
			return nil, fmt.Errorf("%w: input %q empty or listed twice", ErrVertexConfig, in)
		}
	}
	v := &InsightVertex{cfg: cfg, latest: make([]telemetry.Info, len(cfg.Inputs))}
	v.init(cfg.Metric, cfg.Bus, cfg.Clock, cfg.HistorySize, cfg.FailAfter, nil, cfg.Obs)
	return v, nil
}

// Start opens a cursor on every input and launches one goroutine per cursor,
// which feeds each run it reads through the vertex; the last of them to exit
// closes done.
func (v *InsightVertex) Start() error {
	return v.start(func(ctx context.Context, done chan struct{}) error {
		curs := make([]stream.Cursor, 0, len(v.cfg.Inputs))
		for _, in := range v.cfg.Inputs {
			cur, err := v.cfg.Bus.Follow(ctx, string(in), 0)
			if err != nil {
				return fmt.Errorf("score: subscribing %s to %s: %w", v.metric, in, err)
			}
			curs = append(curs, cur)
		}
		var left atomic.Int32
		left.Store(int32(len(curs)))
		for pos, cur := range curs {
			go func() {
				var ins []telemetry.Info
				for run, err := cur.Next(); err == nil; run, err = cur.Next() {
					ins = v.consume(ctx, pos, run, ins)
				}
				if left.Add(-1) == 0 {
					close(done)
				}
			}()
		}
		return nil
	})
}

// consume decodes a run of upstream entries of the input at position pos in
// cfg.Inputs (-1: unknown) into ins — the caller's scratch, returned for the
// next run so that a slot decoding the same metric again keeps its string —
// and, under the actor lock, applies them in order: an entry of that input
// goes to its slot with no lookup, one of another listed input is found by a
// scan of cfg.Inputs, and every entry that leaves all inputs seen rebuilds the
// insight, and the run's insights that pass the only-if-changed filter go
// out as one batch, then into the history. Anatomy timings use wall time
// (see FactVertex.pollOnce), read once per stage boundary of the run: the
// build stage is the decode and the wait for act.
func (v *InsightVertex) consume(ctx context.Context, pos int, run []stream.Entry, ins []telemetry.Info) []telemetry.Info {
	t0 := time.Now()
	ins = slices.Grow(ins[:0], len(run))[:len(run)] // the slots as they were left
	n := 0
	for _, e := range run {
		if ins[n].UnmarshalBinary(e.Payload) == nil {
			n++
		}
	}
	ins = ins[:n]
	failed := uint64(len(run) - n)
	v.obsTuplesIn.Add(uint64(len(ins)))

	v.act.Lock()
	defer v.act.Unlock()
	t1 := time.Now()
	v.stats.addBuild(t1.Sub(t0))
	// Insight time is processing time, read once per run: every insight of
	// the run carries one stamp, so stamps never run backwards under act,
	// whatever future stamps predicted inputs carry; Source says that a
	// prediction contributed.
	var stamp int64
	stamped := v.wall
	if stamped {
		stamp = t1.UnixNano()
	}
	outs := v.outs[:0]
	var built, suppressed, predicted uint64
	for i := range ins {
		in := &ins[i]
		slot := pos
		if slot < 0 || in.Metric != v.cfg.Inputs[slot] {
			if slot = slices.Index(v.cfg.Inputs, in.Metric); slot < 0 {
				failed++ // a stray tuple on an input topic: not one of ours
				continue
			}
		}
		old := &v.latest[slot]
		if old.Metric == "" {
			v.seen++
		}
		// An insight derived from any predicted input is itself predicted.
		// (An unseen slot is the zero Info, whose Source is Measured.)
		if old.Source == telemetry.Predicted {
			v.predicted--
		}
		if in.Source == telemetry.Predicted {
			v.predicted++
		}
		*old = *in
		if v.seen < len(v.latest) {
			continue
		}

		// Insight Builder: combine the latest inputs.
		value := v.cfg.Builder(v.latest)
		built++
		changed := !v.hasLast || value != v.last
		v.last, v.hasLast = value, true
		if !changed && !v.cfg.PublishUnchanged {
			suppressed++
			continue
		}
		out := telemetry.Info{Metric: v.cfg.Metric, Value: value, Kind: telemetry.KindInsight}
		if v.predicted > 0 {
			out.Source = telemetry.Predicted
			predicted++
		}
		if !stamped {
			stamp, stamped = v.clock.Now().UnixNano(), true
		}
		out.Timestamp = stamp
		outs = append(outs, out)
	}
	v.outs = outs
	t2 := time.Now()
	v.stats.addOther(t2.Sub(t1))
	v.stats.polls.Add(built)
	v.stats.suppressed.Add(suppressed)

	if len(outs) > 0 {
		// Should buf grow mid-run, the earlier views keep the array they were
		// cut from, which nothing writes to again.
		buf, payloads := v.buf[:0], v.payloads[:0]
		var err error
		for _, out := range outs {
			off := len(buf)
			if buf, err = out.AppendBinary(buf); err != nil {
				break // the vertex's own metric ID cannot be encoded: no insight can
			}
			payloads = append(payloads, buf[off:len(buf):len(buf)])
		}
		v.buf, v.payloads = buf, payloads
		if err == nil && v.pub.publish(ctx, payloads) {
			v.history.AppendRun(outs)
			v.stats.published.Add(uint64(len(outs)))
			v.stats.predicted.Add(predicted)
			v.obsTuplesOut.Add(uint64(len(outs)))
		} else {
			failed += uint64(len(outs))
		}
		v.stats.addPublish(time.Since(t2))
	}
	if failed > 0 {
		v.stats.errors.Add(failed)
	}
	return ins
}

// ConsumeOnce is exposed for deterministic tests: it feeds one entry through
// the insight pipeline synchronously, as a run of one.
func (v *InsightVertex) ConsumeOnce(e stream.Entry) {
	v.consume(context.Background(), -1, []stream.Entry{e}, nil)
}
