package score

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/archive"
	"repro/internal/delphi"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// FactConfig configures a Fact Vertex.
type FactConfig struct {
	// Hook extracts the metric (required).
	Hook Hook
	// Bus is the Pub-Sub fabric the vertex publishes to (required).
	Bus stream.Bus
	// Controller decides the next polling interval (required). Use
	// adaptive.NewFixed for static polling.
	Controller adaptive.Controller
	// Clock drives polling, tuple timestamps, and the anatomy timings; nil
	// means the wall clock. Inject a *sim.Virtual to run the vertex on
	// deterministic simulated time.
	Clock sim.Clock
	// HistorySize bounds the in-memory queue and the store-and-forward
	// backlog kept while the broker is unreachable (default 4096). Overflow
	// of the backlog evicts its oldest tuple.
	HistorySize int
	// Archive, if non-nil, receives entries evicted from the queue.
	Archive *archive.Log
	// Delphi, if non-nil, publishes predicted Facts for the base-tick
	// instants the relaxed polling interval skips.
	Delphi *delphi.Online
	// Drift, if non-nil (and Delphi is set), tracks the model's one-step
	// prediction error against each measured poll. When it trips, the vertex
	// flips its Delphi instance to measured-only fallback — predictions stop
	// publishing until a retrained model is promoted — and reports the trip
	// through OnDrift.
	Drift *delphi.Detector
	// OnDrift, if non-nil, is called (on the vertex goroutine) when Drift
	// trips; the fleet layer uses it to enqueue a retrain for the metric's
	// device class.
	OnDrift func(telemetry.MetricID)
	// BaseTick is the reference resolution Delphi fills in (default 1s).
	BaseTick time.Duration
	// PublishUnchanged disables the only-if-changed filter (§3.2.1); used
	// by the ablation bench.
	PublishUnchanged bool
	// FailAfter is how many consecutive publish errors flip the vertex
	// health from Degraded to Failed (default DefaultFailAfter).
	FailAfter int
	// Obs, if non-nil, receives the vertex instruments (tuples in/out,
	// backlog, flush latency, queue evictions), labelled by metric.
	Obs *obs.Registry
}

// FactVertex is a SCoRe source vertex: it polls one metric through a monitor
// hook at an adaptive interval, converts Metrics into Facts (Fact Builder),
// publishes them onto its queue, and serves queries over its history.
type FactVertex struct {
	vertex
	cfg FactConfig

	obsPredictSec  *obs.Histogram // Delphi fill-path compute latency
	obsPredBatch   *obs.Histogram // predicted tuples per fill batch
	obsPredictions *obs.Counter   // predicted tuples published
	obsDriftTrips  *obs.Counter   // drift-detector trips
	obsFallback    *obs.Gauge     // 1 while in measured-only fallback

	// One-step-ahead forecast made at the previous poll, compared against the
	// value measured now to feed the drift detector. Vertex goroutine only.
	lastForecast  float64
	forecastScale float64
	hasForecast   bool

	// Prediction fill-path buffers, reused across polls so the steady-state
	// predict-and-publish cycle allocates nothing. Only the vertex goroutine
	// touches them.
	predBuf      []float64
	predInfos    []telemetry.Info
	predPayloads [][]byte
	predBlob     []byte
	factBuf      []byte    // the measured tuple's encoding
	onePayload   [1][]byte // the measured tuple's batch of one
	last         float64   // last measured value, for the only-if-changed filter
	hasLast      bool
}

// NewFactVertex builds a Fact Vertex.
func NewFactVertex(cfg FactConfig) (*FactVertex, error) {
	if cfg.Hook == nil || cfg.Bus == nil || cfg.Controller == nil {
		return nil, fmt.Errorf("%w: hook, bus and controller are required", ErrVertexConfig)
	}
	if cfg.BaseTick <= 0 {
		cfg.BaseTick = time.Second
	}
	v := &FactVertex{cfg: cfg}
	v.init(cfg.Hook.Metric(), cfg.Bus, cfg.Clock, cfg.HistorySize, cfg.FailAfter, cfg.Archive, cfg.Obs)
	if r := cfg.Obs; r != nil {
		m := string(v.metric)
		if cfg.Delphi != nil {
			v.obsPredictSec = r.Histogram(obs.Name("delphi_predict_seconds", "metric", m))
			v.obsPredBatch = r.Histogram(obs.Name("delphi_batch_size", "metric", m),
				1, 2, 4, 8, 16, 32, 64, 128)
			v.obsPredictions = r.Counter(obs.Name("delphi_predictions_total", "metric", m))
		}
		if cfg.Drift != nil {
			v.obsDriftTrips = r.Counter(obs.Name("delphi_drift_trips_total", "metric", m))
			v.obsFallback = r.Gauge(obs.Name("delphi_fallback", "metric", m))
		}
	}
	return v, nil
}

// Start launches the vertex goroutine. The vertex polls immediately, then at
// the controller-chosen interval, until Stop.
func (v *FactVertex) Start() error {
	return v.start(func(ctx context.Context, done chan struct{}) error {
		// Backfill Delphi's observation window from retained history
		// (measured values only) so a vertex created over a pre-populated
		// queue predicts immediately instead of re-warming poll by poll. The
		// zero-copy scan keeps this allocation-free even over a full window.
		if d := v.cfg.Delphi; d != nil && d.Observed() == 0 {
			v.history.RangeFunc(-1<<62, 1<<62, func(in telemetry.Info) bool {
				if in.Source == telemetry.Measured {
					d.Observe(in.Value)
				}
				return true
			})
		}
		go v.run(ctx, done)
		return nil
	})
}

// run polls until ctx ends. The loop waits on its timer alone: the end of ctx
// fires the timer, and ctx is checked after every tick and every Reset, so
// whichever Reset lands last the loop wakes and returns. Timer channels hold
// one tick (go.mod's go 1.22 keeps the pre-1.23 timers), so a stale tick the
// stop's Reset(0) leaves behind is never read.
func (v *FactVertex) run(ctx context.Context, done chan struct{}) {
	defer close(done)
	interval := v.pollOnce(ctx, v.cfg.Controller.Interval())
	timer := v.clock.NewTimer(interval)
	defer timer.Stop()
	stop := context.AfterFunc(ctx, func() { timer.Reset(0) })
	defer stop()
	for ctx.Err() == nil {
		<-timer.C
		if ctx.Err() != nil {
			return
		}
		interval = v.pollOnce(ctx, interval)
		timer.Reset(interval) // its tick was received above: nothing to drain
	}
}

// PollOnce is exposed for deterministic tests and the anatomy bench: it runs
// one full poll-build-publish cycle and returns the next interval.
func (v *FactVertex) PollOnce() time.Duration {
	return v.pollOnce(context.Background(), v.cfg.Controller.Interval())
}

func (v *FactVertex) pollOnce(ctx context.Context, current time.Duration) time.Duration {
	// Anatomy timings (t0..t3) deliberately use wall time: they measure the
	// real CPU cost of each component (Fig. 4) regardless of which clock
	// stamps the tuples.
	t0 := time.Now()
	value, err := v.cfg.Hook.Poll()
	t1 := time.Now()
	v.stats.addHook(t1.Sub(t0))
	v.stats.polls.Add(1)
	if err != nil {
		v.stats.errors.Add(1)
		return current
	}
	ts := t1.UnixNano()
	if !v.wall {
		ts = v.clock.Now().UnixNano()
	}

	v.obsTuplesIn.Inc()

	// Fact Builder: Metric -> Fact tuple, linearized for the queue.
	info := telemetry.NewFact(v.metric, ts, value)
	var perr error
	v.factBuf, perr = info.AppendBinary(v.factBuf[:0])
	t2 := time.Now()
	v.stats.addBuild(t2.Sub(t1))
	if perr != nil {
		v.stats.errors.Add(1)
		return current
	}

	// Publish only on change (§3.2.1), unless the filter is disabled. When
	// the broker is unreachable the tuple is buffered (store-and-forward)
	// and flushed in order on recovery instead of being dropped.
	changed := !v.hasLast || value != v.last
	if changed || v.cfg.PublishUnchanged {
		v.onePayload[0] = v.factBuf
		if v.pub.publish(ctx, v.onePayload[:]) {
			v.history.Append(info)
			v.stats.published.Add(1)
			v.obsTuplesOut.Inc()
		} else {
			v.stats.errors.Add(1)
		}
	} else {
		v.stats.suppressed.Add(1)
	}
	t3 := time.Now()
	v.stats.addPublish(t3.Sub(t2))

	v.last, v.hasLast = value, true
	if v.cfg.Delphi != nil {
		// Continuous accuracy: score the forecast made at the previous poll
		// against the value just measured, before this value enters the
		// window. A tripped detector latches the vertex into measured-only
		// fallback; with Ready() then false, PredictState stops producing
		// forecasts, so the detector starves (stays latched, no churn) until
		// the promotion path resets both.
		if v.hasForecast && v.cfg.Drift != nil {
			if v.cfg.Drift.Observe(value-v.lastForecast, v.forecastScale) {
				v.cfg.Delphi.SetFallback(true)
				v.obsDriftTrips.Inc()
				if v.cfg.OnDrift != nil {
					v.cfg.OnDrift(v.metric)
				}
			}
		}
		v.cfg.Delphi.Observe(value)
		v.lastForecast, v.forecastScale, v.hasForecast = v.cfg.Delphi.PredictState()
		if v.obsFallback != nil {
			if v.cfg.Delphi.InFallback() {
				v.obsFallback.Set(1)
			} else {
				v.obsFallback.Set(0)
			}
		}
	}
	next := v.cfg.Controller.Next(value)

	// Delphi fills the base-tick instants the relaxed interval will skip
	// with predicted Facts (§3.4.2). The whole run of predictions goes out
	// as one batch — encoded into a single contiguous buffer and appended
	// under one broker lock — instead of tuple-at-a-time, and every buffer
	// (the forecast run, the tuple slice, the payload views, the encode
	// blob) is reused across polls: the steady-state fill path of a vertex
	// allocates nothing.
	if v.cfg.Delphi != nil && next > v.cfg.BaseTick {
		steps := int(next/v.cfg.BaseTick) - 1
		if steps > 0 && v.cfg.Delphi.Ready() {
			p0 := time.Now()
			preds := v.cfg.Delphi.PredictTicksInto(v.predBuf[:0], steps)
			v.predBuf = preds
			infos := v.predInfos[:0]
			payloads := v.predPayloads[:0]
			blob := v.predBlob[:0]
			for i, p := range preds {
				pts := ts + int64(v.cfg.BaseTick)*int64(i+1)
				pinfo := telemetry.NewPredictedFact(v.metric, pts, p)
				if need := pinfo.EncodedSize() * len(preds); cap(blob) < need {
					blob = make([]byte, 0, need)
				}
				off := len(blob)
				grown, err := pinfo.AppendBinary(blob)
				if err != nil {
					continue
				}
				blob = grown
				payloads = append(payloads, blob[off:len(blob):len(blob)])
				infos = append(infos, pinfo)
			}
			v.predInfos, v.predPayloads, v.predBlob = infos, payloads, blob
			v.obsPredictSec.ObserveDuration(time.Since(p0))
			if len(payloads) > 0 && v.pub.publish(ctx, payloads) {
				v.history.AppendRun(infos)
				v.stats.predicted.Add(uint64(len(infos)))
				v.obsTuplesOut.Add(uint64(len(infos)))
				v.obsPredBatch.Observe(float64(len(infos)))
				v.obsPredictions.Add(uint64(len(infos)))
			}
		}
	}
	v.stats.addOther(time.Since(t3))
	return next
}

// History exposes the vertex's in-memory ring — the background retrainer
// rebuilds per-class datasets from it via the zero-copy scans, without going
// through the query path.
func (v *FactVertex) History() *queue.History { return v.history }
