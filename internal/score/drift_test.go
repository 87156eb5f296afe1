package score

import (
	"math"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/delphi"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestFactVertexDriftFallback drives a vertex through a seeded distribution
// shift entirely on virtual time: a predictable phase the model tracks, then
// an alternating shifted regime it cannot. The detector must trip, flip the
// vertex to measured-only fallback (predicted facts stop), report through
// OnDrift — and predictions must resume after the promotion path clears the
// fallback and resets the detector.
func TestFactVertexDriftFallback(t *testing.T) {
	model, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 15, SeriesPerFeature: 3, SeriesLen: 150})
	if err != nil {
		t.Fatal(err)
	}

	const phaseA, phaseB = 20, 40
	trace := make([]float64, 0, phaseA+phaseB)
	for i := 0; i < phaseA; i++ { // smooth, learnable
		trace = append(trace, 100+10*math.Sin(float64(i)/4))
	}
	for i := 0; i < phaseB; i++ { // shifted level, period-2 alternation
		v := 50.0
		if i%2 == 0 {
			v += 8
		} else {
			v -= 8
		}
		trace = append(trace, v)
	}

	online := delphi.NewOnline(model)
	det := delphi.NewDetector()
	var drifted []telemetry.MetricID
	reg := obs.NewRegistry()
	bus := stream.NewBroker(0)
	v := newFact(t, bus, &ReplayHook{ID: "comp00.nvme0.cap", Trace: trace}, func(c *FactConfig) {
		c.Controller = adaptive.NewFixed(4 * time.Second) // 3 base ticks to fill per poll
		c.Clock = sim.NewVirtual(time.Unix(0, 0))
		c.Delphi = online
		c.Drift = det
		c.OnDrift = func(m telemetry.MetricID) { drifted = append(drifted, m) }
		c.Obs = reg
	})

	tripPoll := -1
	var predictedAtTrip uint64
	for i := 0; i < phaseA+phaseB; i++ {
		v.PollOnce()
		if tripPoll < 0 && len(drifted) > 0 {
			tripPoll = i
			predictedAtTrip = v.Stats().Predicted
		}
	}
	if tripPoll < 0 {
		t.Fatal("detector never tripped")
	}
	if tripPoll < phaseA {
		t.Fatalf("false positive: tripped at poll %d, before the shift at %d", tripPoll, phaseA)
	}
	if v.Stats().Predicted == 0 || predictedAtTrip == 0 {
		t.Fatal("vertex never published predictions before the shift")
	}
	// Fallback: not a single predicted fact after the trip.
	if got := v.Stats().Predicted; got != predictedAtTrip {
		t.Fatalf("predictions kept flowing in fallback: %d -> %d", predictedAtTrip, got)
	}
	if !online.InFallback() || online.Ready() {
		t.Fatal("online instance not in measured-only fallback")
	}
	if len(drifted) != 1 || drifted[0] != "comp00.nvme0.cap" {
		t.Fatalf("OnDrift calls: %v", drifted)
	}
	snap := reg.Snapshot()
	if snap.Counter(obs.Name("delphi_drift_trips_total", "metric", "comp00.nvme0.cap")) != 1 {
		t.Fatalf("trip counter: %+v", snap.Counters)
	}
	if snap.Gauge(obs.Name("delphi_fallback", "metric", "comp00.nvme0.cap")) != 1 {
		t.Fatal("fallback gauge not set")
	}

	// Promotion path: clear fallback, reset the detector — predictions
	// resume on the very next poll (the window kept filling in fallback).
	online.SetFallback(false)
	det.Reset()
	v.PollOnce()
	if got := v.Stats().Predicted; got <= predictedAtTrip {
		t.Fatalf("predictions did not resume after promotion: %d", got)
	}
	if reg.Snapshot().Gauge(obs.Name("delphi_fallback", "metric", "comp00.nvme0.cap")) != 0 {
		t.Fatal("fallback gauge not cleared")
	}
}
