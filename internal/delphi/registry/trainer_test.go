package registry

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/delphi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// shiftedSegments builds measured series from a distribution the quick base
// model was never trained on but a linear combiner can learn exactly: a
// period-2 square wave around a shifted level. One segment per "metric".
func shiftedSegments(n, metrics int) [][]float64 {
	segs := make([][]float64, metrics)
	for m := range segs {
		s := make([]float64, n)
		for i := range s {
			v := 50.0 + float64(m)
			if i%2 == 0 {
				v += 8
			} else {
				v -= 8
			}
			s[i] = v
		}
		segs[m] = s
	}
	return segs
}

func TestTrainerPromotesImprovedCandidate(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := quickModel(t)

	var mu sync.Mutex
	applied := 0
	appliedVersion := 0
	var current *delphi.Model = base

	o := obs.NewRegistry()
	tr, err := NewTrainer(Config{
		Registry: reg,
		Seed:     7,
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tr.RegisterClass(ClassSpec{
		Name:   "nvme0",
		Source: func() [][]float64 { return shiftedSegments(128, 3) },
		Base: func() *delphi.Model {
			mu.Lock()
			defer mu.Unlock()
			return current
		},
		Apply: func(m *delphi.Model, v int) {
			mu.Lock()
			defer mu.Unlock()
			current, applied, appliedVersion = m, applied+1, v
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ev := tr.RunOnce("nvme0")
	if ev.Kind != EventPromoted {
		t.Fatalf("expected promotion, got kind=%d err=%v report=%+v", ev.Kind, ev.Err, ev.Report)
	}
	if ev.Version != 1 || appliedVersion != 1 || applied != 1 {
		t.Fatalf("apply: version=%d applied=%d appliedVersion=%d", ev.Version, applied, appliedVersion)
	}
	if !(ev.Report.CandidateRMSE < ev.Report.BaseRMSE) {
		t.Fatalf("candidate did not improve: %+v", ev.Report)
	}
	if v, err := reg.ActiveVersion("nvme0"); err != nil || v != 1 {
		t.Fatalf("registry active: v%d, %v", v, err)
	}
	snap := o.Snapshot()
	if snap.Counter("delphi_retrain_runs_total") != 1 ||
		snap.Counter("delphi_retrain_promotions_total") != 1 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if g := snap.Gauge(obs.Name("delphi_model_version", "class", "nvme0")); g != 1 {
		t.Fatalf("model version gauge: %v", g)
	}

	// A second run against the already-adapted model finds no improvement
	// worth promoting; the class re-queues for a later cycle.
	ev2 := tr.RunOnce("nvme0")
	if ev2.Kind == EventError {
		t.Fatalf("second run errored: %v", ev2.Err)
	}
	if ev2.Kind == EventRejected && tr.Pending() != 1 {
		t.Fatalf("rejected class not re-queued: pending=%d", tr.Pending())
	}
}

func TestTrainerRejectsInsufficientData(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	base := quickModel(t)
	if err := tr.RegisterClass(ClassSpec{
		Name:   "hdd1",
		Source: func() [][]float64 { return [][]float64{{1, 2, 3}} },
		Base:   func() *delphi.Model { return base },
	}); err != nil {
		t.Fatal(err)
	}
	ev := tr.RunOnce("hdd1")
	if ev.Kind != EventRejected {
		t.Fatalf("short history should reject, got kind=%d err=%v", ev.Kind, ev.Err)
	}
	if _, err := reg.ActiveVersion("hdd1"); !errors.Is(err, ErrNoActive) {
		t.Fatalf("rejected run must not promote: %v", err)
	}
	if tr.Pending() != 1 {
		t.Fatalf("rejected class not re-queued: pending=%d", tr.Pending())
	}
}

func TestTrainerEnqueueDedupAndBackgroundDrain(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := sim.NewVirtual(time.Unix(0, 0))
	tr, err := NewTrainer(Config{
		Registry: reg,
		Clock:    clk,
		Interval: time.Minute,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := quickModel(t)
	promoted := make(chan int, 1)
	if err := tr.RegisterClass(ClassSpec{
		Name:   "nvme0",
		Source: func() [][]float64 { return shiftedSegments(128, 3) },
		Base:   func() *delphi.Model { return base },
		Apply:  func(_ *delphi.Model, version int) { promoted <- version },
	}); err != nil {
		t.Fatal(err)
	}

	tr.Enqueue("unknown-class") // dropped
	tr.Enqueue("nvme0")
	tr.Enqueue("nvme0") // deduped while queued
	if tr.Pending() != 1 {
		t.Fatalf("pending: %d", tr.Pending())
	}

	tr.Start()
	tr.Start()          // idempotent
	<-clk.BlockUntil(1) // cadence timer registered before the clock moves
	clk.Advance(time.Minute)
	select {
	case v := <-promoted:
		if v != 1 {
			t.Fatalf("promoted version %d, want 1", v)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("background retrain never promoted")
	}
	tr.Stop()
	tr.Stop() // idempotent
}
