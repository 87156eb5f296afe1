package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/delphi"
	"repro/internal/score"
	"repro/internal/telemetry"
)

func trainedModel(t *testing.T) *delphi.Model {
	t.Helper()
	m, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 5, SeriesPerFeature: 2, SeriesLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServicePredictAllBatched wires metrics into the shared batch predictor
// and checks the sweep covers exactly the Delphi-enabled ones, by name.
func TestServicePredictAllBatched(t *testing.T) {
	s := New(Config{Delphi: trainedModel(t), DelphiBatch: 2})
	defer s.Stop()
	for _, id := range []telemetry.MetricID{"cap", "iops"} {
		if _, err := s.RegisterMetric(constHook(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RegisterMetric(constHook("opaque", 1), WithoutDelphi()); err != nil {
		t.Fatal(err)
	}
	res := s.PredictAll()
	if len(res) != 2 {
		t.Fatalf("%d results, want 2 (WithoutDelphi metric must be excluded)", len(res))
	}
	want := map[telemetry.MetricID]bool{"cap": true, "iops": true}
	for _, r := range res {
		if !want[r.Metric] {
			t.Fatalf("unexpected metric %q in sweep", r.Metric)
		}
		delete(want, r.Metric)
		if r.OK {
			t.Fatalf("metric %q OK before any observations", r.Metric)
		}
	}
}

// TestServicePredictAllEndToEnd runs a polling service and waits for the
// batched sweep to produce a real forecast fed by vertex observations.
func TestServicePredictAllEndToEnd(t *testing.T) {
	cfg := fastAIMD()
	s := New(Config{
		Mode:        IntervalSimpleAIMD,
		Adaptive:    cfg,
		Delphi:      trainedModel(t),
		DelphiBatch: 2,
		BaseTick:    2 * time.Millisecond,
	})
	defer s.Stop()
	n := 0.0
	hook := hookFunc("trend", func() (float64, error) { n++; return 100 + n, nil })
	if _, err := s.RegisterMetric(hook); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range s.PredictAll() {
			if r.Metric == "trend" && r.OK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("batched sweep never produced a forecast")
}

func TestServicePredictAllDisabled(t *testing.T) {
	s := New(Config{})
	defer s.Stop()
	if s.PredictAll() != nil {
		t.Fatal("batching must be off without Delphi")
	}
	s1 := New(Config{Delphi: trainedModel(t)})
	defer s1.Stop()
	if _, err := s1.RegisterMetric(constHook("cap", 1)); err != nil {
		t.Fatal(err)
	}
	if s1.PredictAll() != nil {
		t.Fatal("batching must be off without DelphiBatch")
	}
	// Untrained model: the batch lane stays off, the service still works on
	// per-vertex fallback.
	s2 := New(Config{Delphi: &delphi.Model{}, DelphiBatch: 4})
	defer s2.Stop()
	v, err := s2.RegisterMetric(constHook("cap", 1))
	if err != nil {
		t.Fatal(err)
	}
	if s2.PredictAll() != nil {
		t.Fatal("batch lane must stay off for an untrained model")
	}
	v.PollOnce()
	if in, ok := s2.Latest("cap"); !ok || in.Value != 1 {
		t.Fatalf("untrained-model service lost the measured value: %+v %v", in, ok)
	}
}

// TestServicePredictAllMatchesVertices pins the registry-less lane: one
// class, results in registration order (dot-less and dotted names alike),
// each bit-identical to the vertex's own Online.Predict.
func TestServicePredictAllMatchesVertices(t *testing.T) {
	s := New(Config{Delphi: trainedModel(t), DelphiBatch: 2})
	defer s.Stop()
	ids := []telemetry.MetricID{"zeta", "n0.nvme0.capacity", "alpha", "n0.nvme0.iops"}
	onlines := make([]*delphi.Online, len(ids))
	for i, id := range ids {
		i := i
		n := 0.0
		v, err := s.RegisterMetric(hookFunc(id, func() (float64, error) { n++; return float64(10*i) + n*n, nil }),
			WithPublishUnchanged(), func(fc *score.FactConfig) { onlines[i] = fc.Delphi })
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < delphi.WindowSize+i; p++ {
			v.PollOnce()
		}
	}
	res := s.PredictAll()
	if len(res) != len(ids) {
		t.Fatalf("%d results, want %d", len(res), len(ids))
	}
	for i, r := range res {
		want, ok := onlines[i].Predict()
		if r.Metric != ids[i] || r.Value != want || r.OK != ok || !ok {
			t.Fatalf("result %d = %+v, want {%s %v %v}", i, r, ids[i], want, ok)
		}
	}
	if s.ModelVersion(defaultClass) != 0 || s.DelphiRegistry() != nil || s.DelphiTrainer() != nil {
		t.Fatal("registry-less service must have no registry, trainer or model version")
	}
	for name := range s.Metrics().Gauges {
		if strings.HasPrefix(name, "delphi_model_version") {
			t.Fatalf("registry-less service exposes %s", name)
		}
	}
}
