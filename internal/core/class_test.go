package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/delphi"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// observeWalk feeds n values of a seeded random walk into o.
func observeWalk(o *delphi.Online, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	v := 50 + rng.Float64()*10
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		o.Observe(v)
	}
}

// secondModel trains a model of a different lineage than trainedModel.
func secondModel(t *testing.T) *delphi.Model {
	t.Helper()
	m, err := delphi.Train(delphi.TrainOptions{Seed: 99, Epochs: 3, SeriesPerFeature: 2, SeriesLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// registerOnlines registers one Delphi-enabled metric per id and returns the
// Online each vertex was given, every window filled from its own walk.
func registerOnlines(t *testing.T, s *Service, ids ...telemetry.MetricID) []*delphi.Online {
	t.Helper()
	onlines := make([]*delphi.Online, len(ids))
	for i, id := range ids {
		if _, err := s.RegisterMetric(constHook(id, 1), func(r *score.FactConfig) { onlines[i] = r.Delphi }); err != nil {
			t.Fatal(err)
		}
		observeWalk(onlines[i], int64(i+1), 2*delphi.WindowSize)
	}
	return onlines
}

// TestClassAttachAfterPromotion drives a promotion that lands between
// RegisterMetric's newOnline and attach, step by step: the late member is
// swept on the class's new engine, bit-identical to a fresh Online on the
// promoted model.
func TestClassAttachAfterPromotion(t *testing.T) {
	m1, m2 := trainedModel(t), secondModel(t)
	s := New(Config{Delphi: m1})
	defer s.Stop()
	c := s.fleet.classFor(defaultClass)

	o := c.newOnline()
	c.promote(m2, 1)
	observeWalk(o, 1, 2*delphi.WindowSize)
	c.attach("late", o, nil, nil)

	want, old := delphi.NewOnline(m2), delphi.NewOnline(m1)
	observeWalk(want, 1, 2*delphi.WindowSize)
	observeWalk(old, 1, 2*delphi.WindowSize)
	wv, _ := want.Predict()
	if ov, _ := old.Predict(); ov == wv {
		t.Fatal("the two lineages forecast alike; the test cannot tell them apart")
	}
	res := s.PredictAll()
	if len(res) != 1 || res[0].Metric != "late" || !res[0].OK || res[0].Value != wv {
		t.Fatalf("sweep after a promotion before attach: %+v, want {late %v true}", res, wv)
	}
}

// TestClassForeignEngineMember: a member whose Online predicts with an engine
// other than its class's is reported with that Online's own forecast, as
// PredictAll promises for every member, and the rest of the class as usual.
func TestClassForeignEngineMember(t *testing.T) {
	s := New(Config{Delphi: trainedModel(t)})
	defer s.Stop()
	onlines := registerOnlines(t, s, "own", "foreign")
	if err := onlines[1].SwapModel(secondModel(t)); err != nil {
		t.Fatal(err)
	}
	res := s.PredictAll()
	if len(res) != 2 {
		t.Fatalf("%d results, want 2", len(res))
	}
	for i, o := range onlines {
		want, ok := o.Predict()
		if !ok || res[i].Value != want || !res[i].OK {
			t.Fatalf("member %s: %+v, want {%v true}", res[i].Metric, res[i], want)
		}
	}
	classWide := delphi.NewOnline(trainedModel(t))
	observeWalk(classWide, 2, 2*delphi.WindowSize)
	if cv, _ := classWide.Predict(); cv == res[1].Value {
		t.Fatal("the foreign member forecast with the class's engine; the test cannot tell the engines apart")
	}
}

// TestClassPromoteDuringSweeps hammers class sweeps, member observations and
// promotions flipping between two lineages concurrently. Run under -race it
// is the regression gate for promotion versus the hot path: the class lock
// orders promote and predictAll, so a sweep never meets a member the
// promotion has not reached, and a full window always yields a prediction,
// whichever model it ran.
func TestClassPromoteDuringSweeps(t *testing.T) {
	m1, m2 := trainedModel(t), secondModel(t)
	// 256 members: the bench's ingest-inproc class size.
	s := New(Config{Delphi: m1})
	defer s.Stop()
	ids := make([]telemetry.MetricID, 256)
	for i := range ids {
		ids[i] = telemetry.MetricID(fmt.Sprintf("dev%d.cap", i))
	}
	onlines := registerOnlines(t, s, ids...)
	c := s.fleet.classFor(defaultClass)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // promoter: flip between the two lineages
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m := m1
			if i%2 == 0 {
				m = m2
			}
			c.promote(m, i+1)
		}
	}()
	go func() { // observers: vertices keep measuring through promotions
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for j, o := range onlines {
				o.Observe(float64(50 + i + j))
			}
		}
	}()
	go func() { // sweeper: steady-state sweeps
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, r := range s.PredictAll() {
				if !r.OK {
					t.Errorf("sweep %d metric %s: full window yielded no prediction", i, r.Metric)
					return
				}
			}
		}
	}()
	wg.Wait()
}
