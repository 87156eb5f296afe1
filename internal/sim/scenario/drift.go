package scenario

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
)

// DriftMetric is the single fact the drift scenario drives; its device class
// (the suffix after the last '.') keys the registry lineage.
const DriftMetric = "sim.nvme0.cap"

// DriftClass is DriftMetric's device class.
const DriftClass = "cap"

// The drift scenario's shape: how many polls the pre-shift regime lasts, how
// many the shifted regime lasts before the retrain runs (it must leave >= 64
// measured samples for retraining), how many follow the promotion, and the
// virtual-clock step per poll.
const (
	phaseA    = 48
	phaseB    = 192
	recovery  = 64
	driftTick = time.Second
)

// DriftReport is the outcome of one RunDrift.
type DriftReport struct {
	Result

	TripPoll        int               // poll index where drift tripped (-1: never)
	Event           core.RetrainEvent // the retrain outcome
	PromotedVersion int               // class version after the retrain pass

	PreShiftErr  float64 // mean |pred-measured| before the shift
	ShiftErr     float64 // mean |pred-measured| after the shift, pre-trip
	RecoveredErr float64 // mean |pred-measured| after promotion
	Suppressed   int     // polls where fallback suppressed the forecast
}

// driftTrace builds the full measured series: a steady ramp the base model
// tracks (~0.37 normalized residual, well under the 0.9 default threshold),
// then an alternating square wave it cannot (~2.3), with seeded noise so
// different seeds diverge. The square wave is exactly learnable from a
// 5-wide window, so a retrained combiner recovers.
func driftTrace(seed int64) []float64 {
	trace := make([]float64, phaseA+phaseB+recovery)
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range trace {
		s = s*6364136223846793005 + 1442695040888963407
		noise := (float64(s>>11)/float64(1<<53) - 0.5) * 0.4
		if i < phaseA {
			trace[i] = 100 + 0.5*float64(i) + noise
		} else {
			trace[i] = 50 + noise
			if i%2 == 0 {
				trace[i] += 8
			} else {
				trace[i] -= 8
			}
		}
	}
	return trace
}

// RunDrift executes the deterministic continuous-accuracy scenario: a seeded
// regime shift trips the drift detector, the vertex drops to measured-only
// fallback, a synchronous retrain pass promotes a new model version into the
// registry, and the forecast error recovers below the drifted level. The
// whole loop runs on one goroutine over a virtual clock, so the Report (and
// its Transcript/Digest) is a pure function of seed.
//
// RunDrift returns a non-nil error when any invariant was violated; the
// Report is always valid for inspection.
func RunDrift(seed int64) (*DriftReport, error) {
	model, dir, cleanup, err := scratch(driftModel)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	start := time.Unix(0, 0)
	clock := sim.NewVirtual(start)
	trace := driftTrace(seed)

	svc := core.New(core.Config{
		Clock:          clock,
		Delphi:         model,
		DelphiRegistry: dir,
		DelphiRetrain:  time.Minute,
		HistorySize:    512,
	})
	defer svc.Stop()

	v, err := svc.RegisterMetric(&score.ReplayHook{ID: DriftMetric, Trace: trace})
	if err != nil {
		return nil, fmt.Errorf("drift: register: %w", err)
	}
	trips := svc.Obs().Counter(obs.Name("delphi_drift_trips_total", "metric", DriftMetric))

	rep := &DriftReport{TripPoll: -1}
	tr := &transcript{}
	tr.line("drift-scenario seed=%d phases=%d/%d/%d tick=%s", seed, phaseA, phaseB, recovery, driftTick)

	// forecast reads the class sweep's prediction for DriftMetric before the
	// next measurement lands; ok is false while the window warms or the
	// vertex is in measured-only fallback.
	forecast := func() (float64, bool) {
		for _, r := range svc.PredictAll() {
			if r.Metric == DriftMetric {
				return r.Value, r.OK
			}
		}
		return 0, false
	}

	var preSum, shiftSum, recSum float64
	var preN, shiftN, recN int
	poll := func(i int, phase string, sum *float64, n *int) {
		pred, ok := forecast()
		measured := trace[i]
		v.PollOnce()
		elapsed := clock.Now().Sub(start)
		if ok {
			err := math.Abs(pred - measured)
			*sum += err
			*n++
			tr.logf(elapsed, "%s i=%d value=%.4f pred=%.4f err=%.4f", phase, i, measured, pred, err)
		} else {
			rep.Suppressed++
			tr.logf(elapsed, "%s i=%d value=%.4f pred=suppressed", phase, i, measured)
		}
		if rep.TripPoll < 0 && trips.Value() > 0 {
			rep.TripPoll = i
			tr.logf(elapsed, "drift trip poll=%d class=%s", i, DriftClass)
		}
		clock.Advance(driftTick)
	}

	for i := 0; i < phaseA; i++ {
		poll(i, "pre", &preSum, &preN)
	}
	if rep.TripPoll >= 0 {
		tr.failf("false positive: detector tripped at poll %d, inside the stable phase", rep.TripPoll)
	}
	for i := phaseA; i < phaseA+phaseB; i++ {
		poll(i, "shift", &shiftSum, &shiftN)
	}
	if rep.TripPoll < 0 {
		tr.failf("detector never tripped across %d shifted polls", phaseB)
	}
	if _, ok := forecast(); ok {
		tr.failf("forecast still published after the trip: fallback not engaged")
	}

	// Synchronous retrain pass: deterministic scenarios retrain directly
	// instead of waiting out the background cadence.
	rep.Event = svc.Retrain(DriftClass)
	rep.PromotedVersion = svc.ModelVersion(DriftClass)
	tr.line("retrain class=%s kind=%d version=%d base=%.6f cand=%.6f improved=%t err=%v",
		rep.Event.Class, rep.Event.Kind, rep.PromotedVersion,
		rep.Event.Report.BaseRMSE, rep.Event.Report.CandidateRMSE,
		rep.Event.Report.Improved, rep.Event.Err)
	if rep.Event.Kind != core.RetrainPromoted {
		tr.failf("retrain outcome kind=%d err=%v, want promotion", rep.Event.Kind, rep.Event.Err)
	}
	if rep.PromotedVersion != 1 {
		tr.failf("class version %d after first promotion, want 1", rep.PromotedVersion)
	}

	for i := phaseA + phaseB; i < len(trace); i++ {
		poll(i, "recover", &recSum, &recN)
	}

	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	rep.PreShiftErr = mean(preSum, preN)
	rep.ShiftErr = mean(shiftSum, shiftN)
	rep.RecoveredErr = mean(recSum, recN)

	if preN == 0 {
		tr.failf("no forecasts published in the stable phase")
	}
	if shiftN == 0 {
		tr.failf("no forecasts published between the shift and the trip")
	}
	if recN == 0 {
		tr.failf("no forecasts published after the promotion: fallback never lifted")
	}
	if recN > 0 && shiftN > 0 && !(rep.RecoveredErr < rep.ShiftErr) {
		tr.failf("error did not recover: shifted=%.4f recovered=%.4f", rep.ShiftErr, rep.RecoveredErr)
	}

	rep.Result, err = tr.seal(clock.Now().Sub(start), "trip=%d version=%d pre=%.4f shift=%.4f recovered=%.4f suppressed=%d",
		rep.TripPoll, rep.PromotedVersion, rep.PreShiftErr, rep.ShiftErr, rep.RecoveredErr, rep.Suppressed)
	return rep, err
}
