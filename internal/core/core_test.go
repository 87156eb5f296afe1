package core

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func constHook(id telemetry.MetricID, v float64) score.Hook {
	return score.HookFunc{ID: id, Fn: func() (float64, error) { return v, nil }}
}

func TestIntervalModeString(t *testing.T) {
	if IntervalFixed.String() != "fixed" || IntervalSimpleAIMD.String() != "simple-aimd" ||
		IntervalComplexAIMD.String() != "complex-aimd" || IntervalEntropy.String() != "entropy" ||
		IntervalMode(9).String() != "mode(?)" {
		t.Fatal("mode names")
	}
}

// TestIntervalModeText checks the text form is the inverse of String for
// every mode and rejects anything else.
func TestIntervalModeText(t *testing.T) {
	for _, m := range []IntervalMode{IntervalFixed, IntervalSimpleAIMD, IntervalComplexAIMD, IntervalEntropy} {
		text, err := m.MarshalText()
		if err != nil || string(text) != m.String() {
			t.Fatalf("MarshalText(%d) = %q, %v; want %q", m, text, err, m.String())
		}
		got := IntervalMode(-1)
		if err := got.UnmarshalText(text); err != nil || got != m {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", text, got, err, m)
		}
	}
	for _, bad := range []string{"", "aimd", "Fixed", "mode(?)"} {
		m := IntervalEntropy
		if err := m.UnmarshalText([]byte(bad)); err == nil || m != IntervalEntropy {
			t.Fatalf("UnmarshalText(%q) = %v, %v; want an error and the value untouched", bad, m, err)
		}
	}
}

func TestServiceLifecycle(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	if _, err := s.RegisterMetric(constHook("m", 42)); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("double start")
	}
	waitFor(t, func() bool {
		_, ok := s.Latest("m")
		return ok
	})
	in, _ := s.Latest("m")
	if in.Value != 42 {
		t.Fatalf("latest=%v", in)
	}
	s.Stop()
	s.Stop() // idempotent
}

func TestServiceHealthSurface(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	if _, err := s.RegisterMetric(constHook("h1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterInsight("h.sum", []telemetry.MetricID{"h1"}, score.Sum); err != nil {
		t.Fatal(err)
	}
	health := s.Health()
	if len(health) != 2 {
		t.Fatalf("health entries = %d want 2", len(health))
	}
	for id, h := range health {
		if h.State != score.HealthOK {
			t.Fatalf("vertex %s state = %v want ok", id, h.State)
		}
	}
	if s.Degraded() {
		t.Fatal("fresh service reports degraded")
	}
	s.Stop()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never met")
}

func TestRegisterAfterStart(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if _, err := s.RegisterMetric(constHook("late", 7)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, ok := s.Latest("late")
		return ok
	})
}

func TestModes(t *testing.T) {
	for _, mode := range []IntervalMode{IntervalFixed, IntervalSimpleAIMD, IntervalComplexAIMD, IntervalEntropy} {
		s := New(Config{Mode: mode, Clock: sim.NewVirtual(time.Unix(0, 0))})
		if _, err := s.RegisterMetric(constHook("m", 1)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
	s := New(Config{Mode: IntervalMode(99), Clock: sim.NewVirtual(time.Unix(0, 0))})
	if _, err := s.RegisterMetric(constHook("m", 1)); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestMetricOptions(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	ctrl := adaptive.NewFixed(5 * time.Second)
	v, err := s.RegisterMetric(constHook("m", 1), func(r *score.FactConfig) { r.Controller = ctrl }, WithoutDelphi(), WithPublishUnchanged())
	if err != nil {
		t.Fatal(err)
	}
	// Poll twice with the same value: change filter disabled keeps
	// publishing.
	v.PollOnce()
	v.PollOnce()
	if st := v.Stats(); st.Published != 2 {
		t.Fatalf("published=%d", st.Published)
	}
}

func TestQueryThroughAQE(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	va, _ := s.RegisterMetric(constHook("pfs_capacity", 500))
	vb, _ := s.RegisterMetric(constHook("node_1_memory", 64))
	va.PollOnce()
	vb.PollOnce()
	res, err := s.Query("SELECT MAX(Timestamp), metric FROM pfs_capacity UNION SELECT MAX(Timestamp), metric FROM node_1_memory")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].F != 500 || res.Rows[1][1].F != 64 {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestInsightRegistration(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	s := New(Config{Clock: clock})
	s.RegisterMetric(constHook("a", 10))
	s.RegisterMetric(constHook("b", 20))
	if _, err := s.RegisterInsight("sum", []telemetry.MetricID{"a", "b"}, score.Sum); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	waitFor(t, func() bool {
		in, ok := s.Latest("sum")
		return ok && in.Value == 30
	})
	if !s.Unregister("sum") {
		t.Fatal("unregister failed")
	}
	if s.Unregister("sum") {
		t.Fatal("double unregister succeeded")
	}
}

func TestSubscribe(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	v, _ := s.RegisterMetric(constHook("m", 3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := s.Subscribe(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	v.PollOnce()
	select {
	case in := <-ch:
		if in.Value != 3 || in.Metric != "m" {
			t.Fatalf("in=%v", in)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription stalled")
	}
}

// scan returns a metric's tuples in [from, to] from its vertex's ring and
// archive, or nil for a metric never registered.
func scan(s *Service, id telemetry.MetricID, from, to int64) []telemetry.Info {
	v, ok := s.graph.Lookup(id)
	if !ok {
		return nil
	}
	var out []telemetry.Info
	v.ScanRange(from, to, func(in telemetry.Info) bool { out = append(out, in); return true })
	return out
}

func TestRangeAndMissingMetric(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	s := New(Config{Clock: clock})
	h := &score.ReplayHook{ID: "m", Trace: []float64{1, 2, 3}}
	v, _ := s.RegisterMetric(h)
	for i := 0; i < 3; i++ {
		v.PollOnce()
		clock.Advance(time.Second)
	}
	all := scan(s, "m", 0, 1<<62)
	if len(all) != 3 {
		t.Fatalf("range=%v", all)
	}
	if got := scan(s, "ghost", 0, 1); got != nil {
		t.Fatal("ghost range")
	}
	if _, ok := s.Latest("ghost"); ok {
		t.Fatal("ghost latest")
	}
}

func TestArchiveDirWiring(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	s := New(Config{Clock: clock, ArchiveDir: t.TempDir(), HistorySize: 2})
	h := &score.ReplayHook{ID: "m", Trace: []float64{1, 2, 3, 4, 5}}
	v, err := s.RegisterMetric(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v.PollOnce()
		clock.Advance(time.Second)
	}
	// History holds 2; archive holds the 3 evicted. Range must see all 5.
	if all := scan(s, "m", 0, 1<<62); len(all) != 5 {
		t.Fatalf("range=%d", len(all))
	}
	s.Stop()
}

// TestArchiveSegmentBytesReachesTheLog: with a small Config.ArchiveSegmentBytes
// a metric's log seals segments within a few dozen evictions; with the zero
// value it keeps the 4 MiB default and seals none.
func TestArchiveSegmentBytesReachesTheLog(t *testing.T) {
	for _, tc := range []struct {
		segment  int64
		rotation bool
	}{{0, false}, {256, true}} {
		clock := sim.NewVirtual(time.Unix(0, 0))
		s := New(Config{Clock: clock, ArchiveDir: t.TempDir(), HistorySize: 2, ArchiveSegmentBytes: tc.segment})
		trace := make([]float64, 64)
		for i := range trace {
			trace[i] = float64(i)
		}
		v, err := s.RegisterMetric(&score.ReplayHook{ID: "m", Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		for range trace {
			v.PollOnce()
			clock.Advance(time.Second)
		}
		n := s.Metrics().Counter(obs.Name("archive_rotations_total", "log", "m"))
		if (n > 0) != tc.rotation {
			t.Errorf("ArchiveSegmentBytes=%d: %d segment rotations after 62 evictions, want some: %v", tc.segment, n, tc.rotation)
		}
		if all := scan(s, "m", 0, 1<<62); len(all) != len(trace) {
			t.Errorf("ArchiveSegmentBytes=%d: range sees %d tuples across the segments, want %d", tc.segment, len(all), len(trace))
		}
		s.Stop()
	}
}

// TestRegisterDuplicateMetricLeavesArchiveAlone registers a live metric a
// second time: the duplicate must be refused before a second archive.Log (a
// second writer, a second compaction target) is opened on the first
// vertex's directory.
func TestRegisterDuplicateMetricLeavesArchiveAlone(t *testing.T) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	s := New(Config{Clock: clock, ArchiveDir: t.TempDir(), HistorySize: 2})
	defer s.Stop()
	h := &score.ReplayHook{ID: "m", Trace: []float64{1, 2, 3, 4, 5, 6, 7}}
	v, err := s.RegisterMetric(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v.PollOnce()
		clock.Advance(time.Second)
	}
	if _, err := s.RegisterMetric(h); err == nil {
		t.Fatal("duplicate metric accepted")
	}
	if n := len(s.archives); n != 1 {
		t.Fatalf("%d archive logs open, want 1", n)
	}
	if err := s.compactor.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().Counter(obs.Name("archive_compaction_runs_total", "log", "m")); n != 1 {
		t.Fatalf("one compactor pass compacted the metric's log %d times, want 1", n)
	}
	// The first vertex keeps appending to its own log.
	for i := 0; i < 3; i++ {
		v.PollOnce()
		clock.Advance(time.Second)
	}
	if all := scan(s, "m", 0, 1<<62); len(all) != 7 {
		t.Fatalf("range=%d after the refused duplicate, want 7", len(all))
	}
	if n := s.Metrics().Counter(obs.Name("archive_appends_total", "log", "m")); n != 5 {
		t.Fatalf("archive appends = %d, want the 5 evictions", n)
	}
}

func TestServeTCP(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	v, _ := s.RegisterMetric(constHook("m", 9))
	v.PollOnce()
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	bus, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	e, err := bus.Latest(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		t.Fatal(err)
	}
	if in.Value != 9 {
		t.Fatalf("remote latest=%v", in)
	}
}

// TestServeOnce: of two concurrent Serve calls, and of two concurrent
// ServeGateway calls, one binds and the other fails, so Stop closes every
// address the service listens on. A call that fails to bind gives its slot
// back.
func TestServeOnce(t *testing.T) {
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	if _, err := s.Serve("127.0.0.1:99999"); err == nil {
		t.Fatal("Serve on port 99999 succeeded")
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		bound = map[string][]string{}
	)
	for name, serve := range map[string]func(string) (string, error){"Serve": s.Serve, "ServeGateway": s.ServeGateway} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if addr, err := serve("127.0.0.1:0"); err == nil {
					mu.Lock()
					bound[name] = append(bound[name], addr)
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	s.Stop()
	if len(bound["Serve"]) != 1 || len(bound["ServeGateway"]) != 1 {
		t.Fatalf("bound %v, want one address from each method", bound)
	}
	for _, addrs := range bound {
		if c, err := net.Dial("tcp", addrs[0]); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after Stop", addrs[0])
		}
	}
}

// TestServeAfterStop: Serve, ServeGateway and Stop run concurrently, over
// and over; whichever order they take, no address either call returned
// accepts a connection once all three are done, and a call that comes after
// Stop fails.
func TestServeAfterStop(t *testing.T) {
	var open []string
	for round := 0; round < 20; round++ {
		s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			bound []string
		)
		for _, serve := range []func(string) (string, error){s.Serve, s.ServeGateway} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if addr, err := serve("127.0.0.1:0"); err == nil {
					mu.Lock()
					bound = append(bound, addr)
					mu.Unlock()
				}
			}()
		}
		wg.Add(1)
		go func() { defer wg.Done(); s.Stop() }()
		wg.Wait()
		for _, addr := range bound {
			if c, err := net.Dial("tcp", addr); err == nil {
				c.Close()
				open = append(open, addr)
			}
		}
		if addr, err := s.Serve("127.0.0.1:0"); err == nil {
			open = append(open, addr)
		}
		if addr, err := s.ServeGateway("127.0.0.1:0"); err == nil {
			open = append(open, addr)
		}
	}
	if len(open) > 0 {
		t.Fatalf("after Stop, %d addresses still accept connections: %v", len(open), open)
	}
}

func TestDeployNodeMonitors(t *testing.T) {
	c := cluster.BuildAres(time.Unix(0, 0), 1, 0)
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	ids, err := s.DeployNodeMonitors(c.Node("comp00"))
	if err != nil {
		t.Fatal(err)
	}
	// 2 devices x 3 hooks + 4 node hooks = 10.
	if len(ids) != 10 {
		t.Fatalf("ids=%v", ids)
	}
	for _, id := range ids {
		if _, ok := s.graph.Lookup(id); !ok {
			t.Fatalf("metric %s not registered", id)
		}
	}
}

func TestDeployTierCapacityInsights(t *testing.T) {
	c := cluster.BuildAres(time.Unix(0, 0), 2, 1)
	clock := sim.NewVirtual(time.Unix(0, 0))
	s := New(Config{Clock: clock})
	sink, err := s.DeployTierCapacityInsights(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// Total capacity: 2 compute (96 GB RAM + 250 GB NVMe) + 1 storage
	// (150 GB SSD + 1 TB HDD).
	want := float64(2*(96+250)*cluster.GB + (150*cluster.GB + cluster.TB))
	waitFor(t, func() bool {
		in, ok := s.Latest(sink)
		return ok && in.Value == want
	})
}

func TestCapacityView(t *testing.T) {
	c := cluster.BuildAres(time.Unix(0, 0), 1, 0)
	s := New(Config{Clock: sim.NewVirtual(time.Unix(0, 0))})
	d := c.Node("comp00").Device("nvme0")
	v, _ := s.RegisterMetric(score.HookFunc{
		ID: telemetry.MetricID(d.ID() + ".capacity"),
		Fn: func() (float64, error) { return float64(d.Remaining()), nil },
	})
	v.PollOnce()
	in, ok := s.Latest(telemetry.MetricID(d.ID() + ".capacity"))
	if !ok || int64(in.Value) != 250*cluster.GB {
		t.Fatalf("remaining=%v ok=%v", in.Value, ok)
	}
	if _, ok := s.Latest("ghost.capacity"); ok {
		t.Fatal("ghost capacity answered")
	}
}
