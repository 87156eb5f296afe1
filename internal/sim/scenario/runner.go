package scenario

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/adaptive"
	"repro/internal/aqe"
	"repro/internal/archive"
	"repro/internal/delphi"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Metric names of the simulated DAG.
const (
	FactMetric    = "sim.capacity"
	InsightMetric = "sim.capacity.insight"
)

// The pipeline scenario's shape: how many fault events its schedule carries,
// the virtual duration of the run, the discrete-event step (also the Delphi
// fill-in resolution), the AIMD bounds every interval the controller hands
// back must stay inside, and the virtual time one hook poll burns while a
// SlowDisk fault window is active.
const (
	faults          = 6
	horizon         = 3 * time.Minute
	baseTick        = time.Second
	aimdMin         = time.Second
	aimdMax         = 8 * time.Second
	slowDiskLatency = 50 * time.Millisecond
)

// Report is the outcome of one Run.
type Report struct {
	Result
	Schedule sim.Schedule

	Polls     uint64 // hook polls executed
	Facts     uint64 // measured facts accepted by the publish path
	Predicted uint64 // Delphi fill-in facts accepted
	Insights  uint64 // insights accepted
	Archived  uint64 // tuples evicted into the archives
	Injected  uint64 // bus operations failed or delayed by the schedule
	Applied   int    // schedule events applied
}

// Run executes one deterministic scenario: a sampler hook polled by a Fact
// Vertex at an AIMD-adapted interval, Delphi predictions filling skipped
// ticks, an Insight Vertex deriving from the fact stream, archives absorbing
// queue evictions, faults injected from the seeded schedule, and a final
// query pass over the AQE. The whole pipeline runs synchronously on one
// goroutine over a virtual clock, so the returned Report (and in particular
// its Transcript/Digest) is a pure function of seed.
//
// Run returns the Report together with a non-nil error when any pipeline
// invariant was violated; the Report is always valid for inspection.
func Run(seed int64) (*Report, error) {
	model, dir, cleanup, err := scratch(quickModel)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	start := time.Unix(0, 0)
	clock := sim.NewVirtual(start)
	schedule := sim.Generate(seed, faults, horizon)

	broker := stream.NewBroker(0)
	defer broker.Close()
	bus := newFaultBus(broker, clock)

	factLog, err := archive.Open(filepath.Join(dir, "fact"), archive.Options{})
	if err != nil {
		return nil, err
	}
	defer factLog.Close()

	ctrl, err := adaptive.NewSimpleAIMD(adaptive.Config{
		Initial: aimdMin, Min: aimdMin, Max: aimdMax,
		AdditiveStep: time.Second, MultiplicativeFactor: 2, Threshold: 0.5, Window: 1,
	})
	if err != nil {
		return nil, err
	}

	// The workload is a seeded random walk: stable stretches let AIMD relax
	// the interval (opening gaps for Delphi to fill), bursts snap it back.
	wl := rand.New(rand.NewSource(seed ^ 0x5eedface))
	value := 100.0
	var slowUntil time.Time
	hook := score.HookFunc{
		ID: FactMetric,
		Fn: func() (float64, error) {
			if clock.Now().Before(slowUntil) {
				clock.Advance(slowDiskLatency) // a slow disk burns poll time
			}
			if wl.Float64() < 0.35 {
				value += (wl.Float64() - 0.5) * 8
			}
			return value, nil
		},
	}

	fv, err := score.NewFactVertex(score.FactConfig{
		Hook:        hook,
		Bus:         bus,
		Controller:  ctrl,
		Clock:       clock,
		HistorySize: 32, // small window forces evictions into the archive
		Archive:     factLog,
		Delphi:      delphi.NewOnline(model),
		BaseTick:    baseTick,
		FailAfter:   3,
	})
	if err != nil {
		return nil, err
	}
	insight, err := score.NewInsightVertex(score.InsightConfig{
		Metric:  InsightMetric,
		Inputs:  []telemetry.MetricID{FactMetric},
		Builder: score.Sum,
		Bus:     bus,
		Clock:   clock,
		// An insight vertex keeps no archive, so its queries read history
		// alone: keep the run's whole insight stream there. (Its stamps are
		// monotone — one processing-time stamp per run, taken under the
		// vertex's actor lock.)
		HistorySize: 4096,
		FailAfter:   3,
	})
	if err != nil {
		return nil, err
	}

	graph := score.NewGraph()
	if err := graph.RegisterFact(fv); err != nil {
		return nil, err
	}
	if err := graph.RegisterInsight(insight); err != nil {
		return nil, err
	}
	engine := aqe.NewEngine(aqe.GraphResolver{Graph: graph})

	tr := &transcript{}
	factHealth := &healthTracker{name: "fact", tr: tr}
	insHealth := &healthTracker{name: "insight", tr: tr}
	tr.line("scenario %s horizon=%s tick=%s", schedule, horizon, baseTick)

	ctx := context.Background()
	rep := &Report{Schedule: schedule}
	nextPoll := start
	var lastFactID, lastInsID uint64
	evIdx := 0

	for {
		// Every line of a tick carries the time at its start, even after a
		// slow-disk poll or a broker stall has moved the clock on.
		now := clock.Now()
		elapsed := now.Sub(start)
		if elapsed > horizon {
			break
		}

		// Arm every schedule event that has come due.
		for evIdx < len(schedule.Events) && schedule.Events[evIdx].At <= elapsed {
			e := schedule.Events[evIdx]
			tr.logf(elapsed, "fault %s %s", e.Kind, e.Duration)
			if e.Kind == sim.SlowDisk {
				slowUntil = now.Add(e.Duration)
			} else {
				bus.apply(e, now)
			}
			rep.Applied++
			evIdx++
		}

		// Poll when the AIMD deadline arrives.
		if !now.Before(nextPoll) {
			next := fv.PollOnce()
			if next < aimdMin || next > aimdMax {
				tr.failf("aimd-bounds: interval %v outside [%v, %v]", next, aimdMin, aimdMax)
			}
			st := fv.Stats()
			h := fv.Health()
			tr.logf(elapsed, "poll value=%.4f next=%s published=%d predicted=%d buffered=%d health=%s",
				value, next, st.Published, st.Predicted, h.Buffered, h.State)
			nextPoll = now.Add(next)
		}

		// Feed freshly published facts to the insight vertex through the
		// fault bus: a partition delays consumption but never loses tuples.
		if entries, rerr := bus.Range(ctx, FactMetric, lastFactID+1, 1<<62, 0); rerr != nil {
			tr.logf(elapsed, "read-fault %s", rerr)
		} else {
			for _, e := range entries {
				tr.checkMonotoneID(FactMetric, lastFactID, e.ID)
				lastFactID = e.ID
				var in telemetry.Info
				if uerr := in.UnmarshalBinary(e.Payload); uerr != nil {
					tr.failf("decode: fact id %d: %v", e.ID, uerr)
					continue
				}
				tr.logf(elapsed, "fact id=%d ts=%d value=%.4f src=%s", e.ID, in.Timestamp, in.Value, in.Source)
				insight.ConsumeOnce(e)
			}
		}

		// Record the insights that landed (read directly: transcript only).
		if entries, rerr := broker.Range(ctx, InsightMetric, lastInsID+1, 1<<62, 0); rerr == nil {
			for _, e := range entries {
				tr.checkMonotoneID(InsightMetric, lastInsID, e.ID)
				lastInsID = e.ID
				var in telemetry.Info
				if uerr := in.UnmarshalBinary(e.Payload); uerr != nil {
					tr.failf("decode: insight id %d: %v", e.ID, uerr)
					continue
				}
				tr.logf(elapsed, "insight id=%d value=%.4f src=%s", e.ID, in.Value, in.Source)
			}
		}

		if factHealth.observe(fv.Health().State) {
			tr.logf(elapsed, "health fact=%s", fv.Health().State)
		}
		if insHealth.observe(insight.Health().State) {
			tr.logf(elapsed, "health insight=%s", insight.Health().State)
		}

		clock.Advance(baseTick)
	}

	// End-to-end retention check: every acked tuple must be retrievable from
	// the history+archive merge, measured and predicted alike — once acked
	// (delivered or buffered), a tuple may be delayed but never lost.
	if err := factLog.Sync(); err != nil {
		return nil, err
	}
	var measured, predicted, insights uint64
	fv.ScanRange(-1<<62, 1<<62, func(in telemetry.Info) bool {
		if in.Source == telemetry.Measured {
			measured++
		} else {
			predicted++
		}
		return true
	})
	insight.ScanRange(-1<<62, 1<<62, func(telemetry.Info) bool { insights++; return true })
	fst := fv.Stats()
	ist := insight.Stats()
	retained := func(name string, acked, retrievable uint64) {
		if retrievable < acked {
			tr.failf("acked-loss: %s accepted %d tuples but only %d retrievable", name, acked, retrievable)
		}
	}
	retained("fact(measured)", fst.Published, measured)
	retained("fact(predicted)", fst.Predicted, predicted)
	retained("insight", ist.Published, insights)

	// Query pass: the AQE answers over the same history+archive merge.
	for _, q := range []string{
		"SELECT COUNT(*), MIN(Timestamp), MAX(Timestamp) FROM " + FactMetric,
		"SELECT COUNT(*), AVG(metric) FROM " + InsightMetric,
	} {
		res, qerr := engine.Query(q)
		if qerr != nil {
			tr.failf("query: %s: %v", q, qerr)
			continue
		}
		cells := make([]string, 0, len(res.Columns))
		for _, row := range res.Rows {
			for _, c := range row {
				cells = append(cells, c.String())
			}
		}
		tr.line("query %q -> [%s]", q, strings.Join(cells, " "))
	}

	rep.Polls = fst.Polls
	rep.Facts = fst.Published
	rep.Predicted = fst.Predicted
	rep.Insights = ist.Published
	rep.Archived = factLog.Appended()
	rep.Injected = bus.injected
	rep.Result, err = tr.seal(clock.Now().Sub(start), "polls=%d facts=%d predicted=%d insights=%d archived=%d injected=%d applied=%d",
		rep.Polls, rep.Facts, rep.Predicted, rep.Insights, rep.Archived, rep.Injected, rep.Applied)
	return rep, err
}

// healthTracker enforces legal publish-path health transitions:
//
//	OK       -> Degraded            (first error or backlog)
//	Degraded -> OK | Failed         (recovery, or FailAfter consecutive errors)
//	Failed   -> OK | Degraded       (recovery; Degraded while a backlog drains)
//
// OK -> Failed without passing through Degraded is illegal whenever
// FailAfter > 1: the error streak must grow one publish at a time.
type healthTracker struct {
	name string
	last score.HealthState // the zero value is score.HealthOK
	tr   *transcript
}

// observe feeds one health snapshot; it returns true when the state changed.
func (h *healthTracker) observe(s score.HealthState) bool {
	if s == h.last {
		return false
	}
	if h.last == score.HealthOK && s == score.HealthFailed {
		h.tr.failf("health-transition: %s jumped ok -> failed", h.name)
	}
	h.last = s
	return true
}
