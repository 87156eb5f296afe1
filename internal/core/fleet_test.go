package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/delphi/registry"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/telemetry"
)

func TestDeviceClass(t *testing.T) {
	cases := map[telemetry.MetricID]string{
		"comp00.nvme0.capacity": "capacity",
		"comp01.nvme1.iops":     "iops",
		"cap":                   "cap",
		"trailingdot.":          "trailingdot.",
	}
	for id, want := range cases {
		if got := DeviceClass(id); got != want {
			t.Errorf("DeviceClass(%q) = %q, want %q", id, got, want)
		}
	}
}

// TestServiceFleetClassSharding checks that with a registry dir, metrics
// shard into device classes, PredictAll covers all classes, and the
// registry's active version overrides the base model for its class.
func TestServiceFleetClassSharding(t *testing.T) {
	dir := t.TempDir()
	base := trainedModel(t)
	s := New(Config{Delphi: base, DelphiRegistry: dir})
	defer s.Stop()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if s.fleet.reg == nil {
		t.Fatal("no registry with Config.DelphiRegistry set")
	}
	if s.DelphiTrainer() != nil {
		t.Fatal("trainer must be off without DelphiRetrain")
	}

	ids := []telemetry.MetricID{
		"comp00.nvme0.capacity", "comp01.nvme0.capacity", // class capacity
		"comp00.nvme0.iops", // class iops
	}
	for _, id := range ids {
		if _, err := s.RegisterMetric(constHook(id, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RegisterMetric(constHook("comp00.nvme0.opaque", 1), WithoutDelphi()); err != nil {
		t.Fatal(err)
	}
	res := s.PredictAll()
	if len(res) != 3 {
		t.Fatalf("%d results, want 3 (opaque excluded)", len(res))
	}
	seen := map[telemetry.MetricID]bool{}
	for _, r := range res {
		seen[r.Metric] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("metric %q missing from fleet sweep: %v", id, res)
		}
	}
	if s.ModelVersion("capacity") != 0 || s.ModelVersion("iops") != 0 {
		t.Fatal("fresh classes must run the unversioned base model")
	}
}

// TestServiceFleetDriftRetrainPromote wires the full loop at core level:
// drifted vertex → detector trip → enqueue → RunOnce → promotion installs a
// new model version, clears fallback, and predictions resume.
func TestServiceFleetDriftRetrainPromote(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Delphi:         trainedModel(t),
		DelphiRegistry: t.TempDir(),
		DelphiRetrain:  time.Minute,
		Obs:            reg,
	})
	defer s.Stop()

	// A steady ramp the base model tracks, then an alternating shifted
	// square wave it cannot: the error level steps up past what the default
	// detector tolerates, and the wave is exactly learnable by a retrained
	// combiner.
	trace := make([]float64, 256)
	for i := range trace {
		switch {
		case i < 48:
			trace[i] = 100 + 0.5*float64(i)
		case i%2 == 0:
			trace[i] = 58
		default:
			trace[i] = 42
		}
	}
	v, err := s.RegisterMetric(&score.ReplayHook{ID: "comp00.nvme0.cap", Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.DelphiTrainer()
	if tr == nil {
		t.Fatal("trainer not created")
	}

	for i := 0; i < len(trace); i++ {
		v.PollOnce()
		if i == 47 && tr.Pending() != 0 {
			t.Fatal("the detector tripped on the ramp the base model tracks")
		}
	}
	if tr.Pending() == 0 {
		t.Fatal("drift never enqueued a retrain")
	}
	ev := tr.RunOnce("cap")
	if ev.Kind != registry.EventPromoted {
		t.Fatalf("retrain outcome %d (err=%v report=%+v), want promotion", ev.Kind, ev.Err, ev.Report)
	}
	if s.ModelVersion("cap") != 1 {
		t.Fatalf("class version %d, want 1", s.ModelVersion("cap"))
	}
	if g := reg.Snapshot().Gauge(obs.Name("delphi_model_version", "class", "cap")); g != 1 {
		t.Fatalf("version gauge %v, want 1", g)
	}
	// Fallback lifted: the next poll publishes predictions again and the
	// sweep reports OK with the retrained model.
	v.PollOnce()
	res := s.PredictAll()
	if len(res) != 1 || !res[0].OK {
		t.Fatalf("post-promotion sweep: %+v", res)
	}

	// A fresh service over the same registry dir serves the promoted
	// version immediately.
	s2 := New(Config{Delphi: nil, DelphiRegistry: s.cfg.DelphiRegistry})
	defer s2.Stop()
	if _, err := s2.RegisterMetric(constHook("comp09.nvme0.cap", 1)); err != nil {
		t.Fatal(err)
	}
	if s2.ModelVersion("cap") != 1 {
		t.Fatalf("restart lost the promoted version: %d", s2.ModelVersion("cap"))
	}
}

// TestServiceFleetSweepWhileRegistering sweeps and reads versions while new
// classes and members arrive: a sweep sees a consistent snapshot of the class
// list, and every registered metric shows up once registration is done.
func TestServiceFleetSweepWhileRegistering(t *testing.T) {
	s := New(Config{Delphi: trainedModel(t), DelphiRegistry: t.TempDir()})
	defer s.Stop()
	const classes, perClass = 8, 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			seen := map[telemetry.MetricID]bool{}
			for _, r := range s.PredictAll() {
				if seen[r.Metric] {
					t.Errorf("metric %q twice in one sweep", r.Metric)
					return
				}
				seen[r.Metric] = true
			}
			s.ModelVersion("c3")
		}
	}()
	for c := classes - 1; c >= 0; c-- {
		for d := 0; d < perClass; d++ {
			id := telemetry.MetricID(fmt.Sprintf("dev%d.c%d", d, c))
			if _, err := s.RegisterMetric(constHook(id, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	res := s.PredictAll()
	if len(res) != classes*perClass {
		t.Fatalf("%d results, want %d", len(res), classes*perClass)
	}
	for i := 1; i < len(res); i++ {
		if DeviceClass(res[i-1].Metric) > DeviceClass(res[i].Metric) {
			t.Fatalf("sweep not in class-name order: %q before %q", res[i-1].Metric, res[i].Metric)
		}
	}
}
