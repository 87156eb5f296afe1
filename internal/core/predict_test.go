package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/delphi"
	"repro/internal/score"
	"repro/internal/sim"
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

// TestServicePredictAllBatched checks the sweep covers exactly the
// Delphi-enabled metrics, by name.
func TestServicePredictAllBatched(t *testing.T) {
	s := New(Config{Delphi: trainedModel(t)})
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

// TestServicePredictAllEndToEnd drives a service on a virtual clock poll by
// poll, advanced by each interval the controller hands back: after each poll
// the sweep reports the forecast of the measurements the vertex has observed
// — that of a fresh Online fed the same values — with OK=false until the
// window fills.
func TestServicePredictAllEndToEnd(t *testing.T) {
	model := trainedModel(t)
	clock := sim.NewVirtual(time.Unix(0, 0))
	s := New(Config{
		Clock:    clock,
		Mode:     IntervalSimpleAIMD,
		Adaptive: fastAIMD(),
		Delphi:   model,
		BaseTick: 2 * time.Millisecond,
	})
	defer s.Stop()
	n := 0.0
	value := func() float64 { return 100 + n*n/4 }
	v, err := s.RegisterMetric(hookFunc("trend", func() (float64, error) { n++; return value(), nil }))
	if err != nil {
		t.Fatal(err)
	}
	ref := delphi.NewOnline(model)
	for poll := 1; poll <= 3*delphi.WindowSize; poll++ {
		clock.Advance(v.PollOnce())
		ref.Observe(value())
		want, wantOK := ref.Predict()
		res := s.PredictAll()
		if len(res) != 1 || res[0].Metric != "trend" || res[0].Value != want || res[0].OK != wantOK {
			t.Fatalf("poll %d: sweep %+v, want {trend %v %v}", poll, res, want, wantOK)
		}
		if wantOK != (poll >= delphi.WindowSize) {
			t.Fatalf("poll %d: forecast OK=%v with %d of %d window values", poll, wantOK, poll, delphi.WindowSize)
		}
	}
}

// TestServicePredictAllDisabled: without a Delphi-enabled metric PredictAll
// returns nil; with an untrained model every metric is reported, never OK,
// and the service still works on per-vertex last-value-hold.
func TestServicePredictAllDisabled(t *testing.T) {
	s := New(Config{})
	defer s.Stop()
	if _, err := s.RegisterMetric(constHook("cap", 1)); err != nil {
		t.Fatal(err)
	}
	if s.PredictAll() != nil {
		t.Fatal("a service without Delphi answered a sweep")
	}
	s1 := New(Config{Delphi: trainedModel(t)})
	defer s1.Stop()
	if s1.PredictAll() != nil {
		t.Fatal("a sweep with no Delphi-enabled metric must be nil")
	}
	s2 := New(Config{Delphi: &delphi.Model{}})
	defer s2.Stop()
	v, err := s2.RegisterMetric(constHook("cap", 1))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < delphi.WindowSize; p++ {
		v.PollOnce()
	}
	if res := s2.PredictAll(); len(res) != 1 || res[0].OK || res[0].Value != 1 {
		t.Fatalf("untrained model: sweep %+v, want [{cap 1 false}]", res)
	}
	if in, ok := s2.Latest("cap"); !ok || in.Value != 1 {
		t.Fatalf("untrained-model service lost the measured value: %+v %v", in, ok)
	}
}

// TestServicePredictAllMatchesVertices pins the registry-less lane: one
// class, results in registration order (dot-less and dotted names alike),
// each bit-identical to the vertex's own Online.Predict.
func TestServicePredictAllMatchesVertices(t *testing.T) {
	s := New(Config{Delphi: trainedModel(t)})
	defer s.Stop()
	ids := []telemetry.MetricID{"zeta", "n0.nvme0.capacity", "alpha", "n0.nvme0.iops"}
	onlines := make([]*delphi.Online, len(ids))
	for i, id := range ids {
		i := i
		n := 0.0
		v, err := s.RegisterMetric(hookFunc(id, func() (float64, error) { n++; return float64(10*i) + n*n, nil }),
			WithPublishUnchanged(), func(r *score.FactConfig) { onlines[i] = r.Delphi })
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
	if s.ModelVersion(defaultClass) != 0 || s.fleet.reg != nil || s.fleet.retrains() {
		t.Fatal("registry-less service must have no registry, retraining or model version")
	}
	for name := range s.Metrics().Gauges {
		if strings.HasPrefix(name, "delphi_model_version") {
			t.Fatalf("registry-less service exposes %s", name)
		}
	}
}
