package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/delphi/registry"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
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
	if s.fleet.retrains() {
		t.Fatal("retraining must be off without DelphiRetrain")
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

// driftTrace is a steady ramp the base model tracks, then an alternating
// shifted square wave it cannot: the error level steps up past what the
// default detector tolerates, and the wave is exactly learnable by a
// retrained combiner.
func driftTrace() []float64 {
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
	return trace
}

// retrainService builds an unstarted service that retrains, over a fresh
// registry directory.
func retrainService(t *testing.T, cfg Config) *Service {
	t.Helper()
	cfg.Delphi = trainedModel(t)
	cfg.DelphiRegistry = t.TempDir()
	cfg.DelphiRetrain = time.Minute
	s := New(cfg)
	t.Cleanup(s.Stop)
	return s
}

// replay registers one Delphi-enabled metric per id, each replaying trace,
// and polls them all through n samples.
func replay(t *testing.T, s *Service, trace []float64, n int, ids ...telemetry.MetricID) []*score.FactVertex {
	t.Helper()
	vs := make([]*score.FactVertex, len(ids))
	for i, id := range ids {
		v, err := s.RegisterMetric(&score.ReplayHook{ID: id, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = v
	}
	for i := 0; i < n; i++ {
		for _, v := range vs {
			v.PollOnce()
		}
	}
	return vs
}

// queued reports the classes on the retrain queue, in order.
func queued(s *Service) []string {
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	var names []string
	for _, c := range s.fleet.queue {
		names = append(names, c.name)
	}
	return names
}

// TestServiceFleetDriftRetrainPromote wires the full loop at core level:
// drifted vertex → detector trip → enqueue → Retrain → promotion installs a
// new model version, clears fallback, and predictions resume.
func TestServiceFleetDriftRetrainPromote(t *testing.T) {
	s := retrainService(t, Config{})
	trace := driftTrace()
	v := replay(t, s, trace, 48, "comp00.nvme0.cap")[0]
	if q := queued(s); len(q) != 0 {
		t.Fatalf("the detector tripped on the ramp the base model tracks: queue %v", q)
	}
	for i := 48; i < len(trace); i++ {
		v.PollOnce()
	}
	if q := queued(s); len(q) != 1 || q[0] != "cap" {
		t.Fatalf("drift queued %v, want [cap]", q)
	}
	ev := s.Retrain("cap")
	if ev.Kind != RetrainPromoted || ev.Class != "cap" || ev.Version != 1 {
		t.Fatalf("retrain outcome %+v, want promotion of cap to v1", ev)
	}
	if !(ev.Report.CandidateRMSE < ev.Report.BaseRMSE) {
		t.Fatalf("candidate did not improve: %+v", ev.Report)
	}
	if s.ModelVersion("cap") != 1 {
		t.Fatalf("class version %d, want 1", s.ModelVersion("cap"))
	}
	if g := s.Metrics().Gauge(obs.Name("delphi_model_version", "class", "cap")); g != 1 {
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

// TestServiceRetrainRejectsInsufficientData: a class with too little
// measured history is rejected, promotes nothing and goes back on the queue.
func TestServiceRetrainRejectsInsufficientData(t *testing.T) {
	s := retrainService(t, Config{})
	replay(t, s, []float64{1, 2, 3}, 3, "comp00.hdd1.iops")
	ev := s.Retrain("iops")
	if ev.Kind != RetrainRejected || ev.Err != nil {
		t.Fatalf("short history: outcome %+v, want rejection", ev)
	}
	if _, err := s.fleet.reg.ActiveVersion("iops"); !errors.Is(err, registry.ErrNoActive) {
		t.Fatalf("a rejected retrain promoted: %v", err)
	}
	if s.ModelVersion("iops") != 0 {
		t.Fatalf("class version %d after a rejection, want 0", s.ModelVersion("iops"))
	}
	if q := queued(s); len(q) != 1 || q[0] != "iops" {
		t.Fatalf("rejected class not re-queued: %v", q)
	}
	snap := s.Metrics()
	if snap.Counter("delphi_retrain_runs_total") != 1 || snap.Counter("delphi_retrain_rejected_total") != 1 ||
		snap.Counter("delphi_retrain_promotions_total") != 0 {
		t.Fatalf("counters: %v", snap.Counters)
	}
	for _, class := range []string{"nosuch", ""} {
		if ev := s.Retrain(class); ev.Kind != RetrainError || ev.Err == nil {
			t.Fatalf("Retrain(%q) = %+v, want an error", class, ev)
		}
	}
	if n := s.Metrics().Counter("delphi_retrain_runs_total"); n != 1 {
		t.Fatalf("retraining an unknown class counted a run: %d", n)
	}
}

// TestServiceRetrainCountsOutcomes drives one class through an error (the
// registry cannot save), a promotion and a second pass, and checks the
// outcome counters, the version gauge and the queue after each.
func TestServiceRetrainCountsOutcomes(t *testing.T) {
	s := retrainService(t, Config{})
	trace := driftTrace()
	replay(t, s, trace, len(trace), "comp00.nvme0.cap")
	// A file where the class directory goes makes Save fail.
	blocker := filepath.Join(s.cfg.DelphiRegistry, "cap")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if ev := s.Retrain("cap"); ev.Kind != RetrainError || ev.Err == nil {
		t.Fatalf("outcome %+v with an unwritable class, want an error", ev)
	}
	if q := queued(s); len(q) != 1 || q[0] != "cap" {
		t.Fatalf("failed class not re-queued: %v", q)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if ev := s.Retrain("cap"); ev.Kind != RetrainPromoted || ev.Version != 1 {
		t.Fatalf("outcome %+v, want promotion to v1", ev)
	}
	snap := s.Metrics()
	for name, want := range map[string]uint64{
		"delphi_retrain_runs_total":       2,
		"delphi_retrain_errors_total":     1,
		"delphi_retrain_promotions_total": 1,
		"delphi_retrain_rejected_total":   0,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if g := snap.Gauge(obs.Name("delphi_model_version", "class", "cap")); g != 1 {
		t.Fatalf("version gauge %v, want 1", g)
	}
	if h := snap.Histograms["delphi_retrain_seconds"]; h.Count != 2 {
		t.Fatalf("delphi_retrain_seconds counts %d runs, want 2", h.Count)
	}

	// A second pass against the adapted model either finds nothing worth
	// promoting, and the class goes back on the queue, or promotes v2.
	switch ev := s.Retrain("cap"); ev.Kind {
	case RetrainRejected:
		if q := queued(s); len(q) != 1 {
			t.Fatalf("rejected class not re-queued: %v", q)
		}
	case RetrainPromoted:
		if ev.Version != 2 || s.ModelVersion("cap") != 2 {
			t.Fatalf("second promotion: outcome %+v, class version %d", ev, s.ModelVersion("cap"))
		}
	default:
		t.Fatalf("second pass errored: %v", ev.Err)
	}
}

// TestServiceRetrainCadenceDrainsQueue: three members of one class trip, the
// class is queued once, and the DelphiRetrain cadence on the service clock
// drains the queue and promotes v1.
func TestServiceRetrainCadenceDrainsQueue(t *testing.T) {
	clk := sim.NewVirtual(time.Unix(0, 0))
	s := retrainService(t, Config{Clock: clk})
	trace := driftTrace()
	ids := []telemetry.MetricID{"comp00.nvme0.cap", "comp01.nvme0.cap", "comp02.nvme0.cap"}
	replay(t, s, trace, len(trace), ids...)
	var trips uint64
	for _, id := range ids {
		trips += s.Metrics().Counter(obs.Name("delphi_drift_trips_total", "metric", string(id)))
	}
	if trips != uint64(len(ids)) {
		t.Fatalf("%d drift trips across the class, want one per member", trips)
	}
	if q := queued(s); len(q) != 1 || q[0] != "cap" {
		t.Fatalf("queue %v after %d trips, want [cap] once", q, trips)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// The cadence and each member's poll loop re-arm their timer only once
	// a pass has ended, so every timer armed again means every pass is over.
	settle := func() {
		select {
		case <-clk.BlockUntil(1 + len(ids)):
		case <-time.After(30 * time.Second):
			t.Fatalf("%d timers armed, want the cadence's and one per member", clk.PendingWaiters())
		}
	}
	settle()
	for pass := 1; s.Metrics().Counter("delphi_retrain_promotions_total") == 0; pass++ {
		if pass > 5 {
			t.Fatalf("the cadence never promoted in 5 passes: queue %v, counters %v", queued(s), s.Metrics().Counters)
		}
		clk.Advance(time.Minute)
		settle()
	}
	if v := s.ModelVersion("cap"); v != 1 {
		t.Fatalf("class version %d after the cadence promoted, want 1", v)
	}
	s.Stop()
	s.Stop()
}

// TestServiceRetrainRaces races Service.Retrain callers, the cadence's
// drain, drift enqueues and sweeps on one class, all starting at once: the
// queue never holds the class twice, and the class serves the version the
// registry holds active, one per promotion.
func TestServiceRetrainRaces(t *testing.T) {
	s := retrainService(t, Config{})
	trace := driftTrace()
	replay(t, s, trace, len(trace), "comp00.nvme0.cap")
	c := s.fleet.class("cap")
	work := []func(){
		func() { s.Retrain("cap") },
		func() { s.Retrain("cap") },
		func() { s.Retrain("cap") },
		func() { s.fleet.enqueue(c); s.fleet.drain() },
		func() { s.fleet.enqueue(c) },
		func() { s.PredictAll() },
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, fn := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 3; i++ {
				fn()
			}
		}()
	}
	close(start)
	wg.Wait()
	if q := queued(s); len(q) > 1 {
		t.Fatalf("queue %v holds the class twice", q)
	}
	promotions := s.Metrics().Counter("delphi_retrain_promotions_total")
	active, err := s.fleet.reg.ActiveVersion("cap")
	if promotions == 0 || err != nil {
		t.Fatalf("%d promotions, registry active version: %v", promotions, err)
	}
	if v := s.ModelVersion("cap"); v != active || uint64(v) != promotions {
		t.Fatalf("class serves v%d, registry holds v%d active, after %d promotions", v, active, promotions)
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
