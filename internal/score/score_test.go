package score

import (
	"context"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/archive"
	"repro/internal/delphi"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// counterHook returns 10, 20, 30, ... on successive polls.
func counterHook(id telemetry.MetricID) *ReplayHook {
	trace := make([]float64, 100)
	for i := range trace {
		trace[i] = float64((i + 1) * 10)
	}
	return &ReplayHook{ID: id, Trace: trace}
}

// scanAll collects ex's tuples in [from, to].
func scanAll(ex Executor, from, to int64) []telemetry.Info {
	var out []telemetry.Info
	ex.ScanRange(from, to, func(in telemetry.Info) bool {
		out = append(out, in)
		return true
	})
	return out
}

// awaitTuple follows topic from its first entry until a tuple for which ok
// holds arrives, and returns it; it fails the test after 2s.
func awaitTuple(t *testing.T, bus stream.Bus, topic string, ok func(telemetry.Info) bool) telemetry.Info {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cur, err := bus.Follow(ctx, topic, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		run, err := cur.Next()
		if err != nil {
			t.Fatalf("no such tuple on %s within 2s: %v", topic, err)
		}
		for _, e := range run {
			var in telemetry.Info
			if in.UnmarshalBinary(e.Payload) == nil && ok(in) {
				return in
			}
		}
	}
}

// anyTuple is the awaitTuple condition every tuple meets.
func anyTuple(telemetry.Info) bool { return true }

func TestHookFunc(t *testing.T) {
	h := HookFunc{ID: "m", Fn: func() (float64, error) { return 7, nil }}
	if h.Metric() != "m" {
		t.Fatal("metric wrong")
	}
	v, err := h.Poll()
	if err != nil || v != 7 {
		t.Fatalf("poll=%f err=%v", v, err)
	}
}

func TestReplayHook(t *testing.T) {
	h := &ReplayHook{ID: "m", Trace: []float64{1, 2, 3}}
	for want := 1; want <= 3; want++ {
		v, _ := h.Poll()
		if v != float64(want) {
			t.Fatalf("poll=%f want %d", v, want)
		}
	}
	// Holds last value past the end.
	if v, _ := h.Poll(); v != 3 {
		t.Fatalf("past end=%f", v)
	}
	empty := &ReplayHook{ID: "e"}
	if v, _ := empty.Poll(); v != 0 {
		t.Fatal("empty replay hook")
	}
}

func newFact(t *testing.T, bus stream.Bus, hook Hook, opts func(*FactConfig)) *FactVertex {
	t.Helper()
	cfg := FactConfig{
		Hook:       hook,
		Bus:        bus,
		Controller: adaptive.NewFixed(time.Second),
		Clock:      sim.NewVirtual(time.Unix(0, 0)),
	}
	if opts != nil {
		opts(&cfg)
	}
	v, err := NewFactVertex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFactPollAllocs pins the measured-tuple path on an in-process broker:
// the tuple is encoded into the vertex's own buffer, the broker copies it
// into its log, and riding the batch interface as a batch of one costs
// nothing. (The log's rare chunk allocation is a small fraction of one per
// poll.)
func TestFactPollAllocs(t *testing.T) {
	n := 0.0
	hook := HookFunc{ID: "m", Fn: func() (float64, error) { n++; return n, nil }}
	v := newFact(t, stream.NewBroker(1<<10), hook, nil)
	v.PollOnce()
	if got := testing.AllocsPerRun(200, func() { v.PollOnce() }); got > 0 {
		t.Fatalf("a measured poll allocates %v times, want 0", got)
	}
}

func TestFactVertexConfigValidation(t *testing.T) {
	if _, err := NewFactVertex(FactConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestFactVertexPollPublish(t *testing.T) {
	bus := stream.NewBroker(0)
	v := newFact(t, bus, counterHook("node.cap"), nil)
	v.PollOnce()
	v.PollOnce()

	latest, ok := v.Latest()
	if !ok || latest.Value != 20 || latest.Kind != telemetry.KindFact || latest.Source != telemetry.Measured {
		t.Fatalf("latest=%v ok=%v", latest, ok)
	}
	e, err := bus.Latest(context.Background(), "node.cap")
	if err != nil {
		t.Fatal(err)
	}
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		t.Fatal(err)
	}
	if in.Value != 20 {
		t.Fatalf("published=%v", in)
	}
	st := v.Stats()
	if st.Polls != 2 || st.Published != 2 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestFactVertexChangeFilter(t *testing.T) {
	bus := stream.NewBroker(0)
	h := &ReplayHook{ID: "m", Trace: []float64{5, 5, 5, 6}}
	v := newFact(t, bus, h, nil)
	for i := 0; i < 4; i++ {
		v.PollOnce()
	}
	st := v.Stats()
	if st.Published != 2 || st.Suppressed != 2 {
		t.Fatalf("published=%d suppressed=%d", st.Published, st.Suppressed)
	}
	_, n, _ := bus.TopicTail(context.Background(), "m")
	if n != 2 {
		t.Fatalf("bus entries=%d", n)
	}
}

func TestFactVertexPublishUnchanged(t *testing.T) {
	bus := stream.NewBroker(0)
	h := &ReplayHook{ID: "m", Trace: []float64{5, 5, 5}}
	v := newFact(t, bus, h, func(c *FactConfig) { c.PublishUnchanged = true })
	for i := 0; i < 3; i++ {
		v.PollOnce()
	}
	if st := v.Stats(); st.Published != 3 {
		t.Fatalf("published=%d", st.Published)
	}
}

func TestFactVertexAdaptiveInterval(t *testing.T) {
	bus := stream.NewBroker(0)
	cfg := adaptive.DefaultConfig()
	cfg.Threshold = 1
	ctrl, _ := adaptive.NewSimpleAIMD(cfg)
	h := &ReplayHook{ID: "m", Trace: []float64{5, 5, 5, 5}}
	v := newFact(t, bus, h, func(c *FactConfig) { c.Controller = ctrl })
	v.PollOnce()
	next := v.PollOnce()
	if next != 2*time.Second {
		t.Fatalf("next=%v want 2s (stable metric grows interval)", next)
	}
}

func TestFactVertexDelphiFillsGaps(t *testing.T) {
	bus := stream.NewBroker(0)
	model, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 15, SeriesPerFeature: 3, SeriesLen: 150})
	if err != nil {
		t.Fatal(err)
	}
	// Controller that always wants 4s between polls: Delphi must fill the
	// 3 skipped base ticks once its window is warm.
	ctrl := adaptive.NewFixed(4 * time.Second)
	h := &ReplayHook{ID: "m", Trace: []float64{10, 20, 30, 40, 50, 60, 70}}
	v := newFact(t, bus, h, func(c *FactConfig) {
		c.Controller = ctrl
		c.Delphi = delphi.NewOnline(model)
		c.BaseTick = time.Second
	})
	for i := 0; i < 6; i++ {
		v.PollOnce()
	}
	st := v.Stats()
	if st.Predicted == 0 {
		t.Fatalf("no predicted facts published: %+v", st)
	}
	// History must contain predicted tuples marked as such.
	all := scanAll(v, 0, 1<<62)
	foundPredicted := false
	for _, in := range all {
		if in.Source == telemetry.Predicted {
			foundPredicted = true
			if in.Kind != telemetry.KindFact {
				t.Fatalf("predicted entry has kind %v", in.Kind)
			}
		}
	}
	if !foundPredicted {
		t.Fatal("no predicted entries in history")
	}
}

// TestVertexStartStop drives the lifecycle both vertex kinds share: Stop
// before Start is a no-op, a second Start is refused while running, and a
// second Stop is a no-op. Stop waits for the vertex goroutines, so the tuple
// seen on the bus is in the history too once it returns.
func TestVertexStartStop(t *testing.T) {
	for _, tc := range []struct {
		name, metric string
		new          func(t *testing.T, bus stream.Bus) Vertex
	}{
		{"fact", "m", func(t *testing.T, bus stream.Bus) Vertex {
			return newFact(t, bus, counterHook("m"), nil)
		}},
		{"insight", "sum", func(t *testing.T, bus stream.Bus) Vertex {
			publish(t, bus, telemetry.NewFact("m", 1, 10))
			v, err := NewInsightVertex(InsightConfig{
				Metric: "sum", Inputs: []telemetry.MetricID{"m"},
				Builder: Sum, Bus: bus, Clock: sim.NewVirtual(time.Unix(0, 0)),
			})
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := stream.NewBroker(0)
			v := tc.new(t, bus)
			v.Stop() // never started
			if err := v.Start(); err != nil {
				t.Fatal(err)
			}
			if err := v.Start(); err == nil {
				t.Fatal("double start accepted")
			}
			awaitTuple(t, bus, tc.metric, anyTuple)
			v.Stop()
			v.Stop()
			if _, ok := v.Latest(); !ok {
				t.Fatal("published tuple missing from the history")
			}
		})
	}
}

func TestFactVertexArchiveFallback(t *testing.T) {
	bus := stream.NewBroker(0)
	log, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	clock := sim.NewVirtual(time.Unix(0, 0))
	h := counterHook("m")
	v := newFact(t, bus, h, func(c *FactConfig) {
		c.Clock = clock
		c.HistorySize = 4
		c.Archive = log
	})
	for i := 0; i < 10; i++ {
		v.PollOnce()
		clock.Advance(time.Second)
	}
	// History holds 4 entries; 6 were evicted to the archive. A full range
	// must return all 10 in order.
	all := scanAll(v, 0, 1<<62)
	if len(all) != 10 {
		t.Fatalf("range returned %d entries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Timestamp < all[i-1].Timestamp {
			t.Fatal("merged range out of order")
		}
	}
	if all[0].Value != 10 || all[9].Value != 100 {
		t.Fatalf("range values wrong: first=%v last=%v", all[0], all[9])
	}
}

func TestInsightVertexValidation(t *testing.T) {
	if _, err := NewInsightVertex(InsightConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func publish(t *testing.T, bus stream.Bus, in telemetry.Info) stream.Entry {
	t.Helper()
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	id, err := bus.PublishBatch(context.Background(), string(in.Metric), [][]byte{b})
	if err != nil {
		t.Fatal(err)
	}
	return stream.Entry{ID: id, Payload: b}
}

func TestInsightVertexAggregates(t *testing.T) {
	bus := stream.NewBroker(0)
	v, err := NewInsightVertex(InsightConfig{
		Metric:  "total",
		Inputs:  []telemetry.MetricID{"a", "b"},
		Builder: Sum,
		Bus:     bus,
		Clock:   sim.NewVirtual(time.Unix(0, 100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feed entries synchronously.
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("a", 1, 10)))
	if _, ok := v.Latest(); ok {
		t.Fatal("insight produced before all inputs seen")
	}
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("b", 2, 32)))
	latest, ok := v.Latest()
	if !ok || latest.Value != 42 || latest.Kind != telemetry.KindInsight {
		t.Fatalf("latest=%v ok=%v", latest, ok)
	}
	// Update one input; insight recomputes.
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("a", 3, 20)))
	latest, _ = v.Latest()
	if latest.Value != 52 {
		t.Fatalf("updated=%v", latest)
	}
	// The insight is itself published on the bus.
	e, err := bus.Latest(context.Background(), "total")
	if err != nil {
		t.Fatal(err)
	}
	var out telemetry.Info
	if err := out.UnmarshalBinary(e.Payload); err != nil {
		t.Fatal(err)
	}
	if out.Value != 52 {
		t.Fatalf("published insight=%v", out)
	}
}

func TestInsightVertexPredictedPropagation(t *testing.T) {
	bus := stream.NewBroker(0)
	v, _ := NewInsightVertex(InsightConfig{
		Metric: "sum", Inputs: []telemetry.MetricID{"a", "b"},
		Builder: Sum, Bus: bus, Clock: sim.NewVirtual(time.Unix(0, 0)),
	})
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("a", 1, 1)))
	v.ConsumeOnce(publish(t, bus, telemetry.NewPredictedFact("b", 2, 2)))
	latest, ok := v.Latest()
	if !ok || latest.Source != telemetry.Predicted {
		t.Fatalf("latest=%v ok=%v (predicted input must taint insight)", latest, ok)
	}
}

func TestInsightVertexChangeFilter(t *testing.T) {
	bus := stream.NewBroker(0)
	v, _ := NewInsightVertex(InsightConfig{
		Metric: "sum", Inputs: []telemetry.MetricID{"a"},
		Builder: Sum, Bus: bus, Clock: sim.NewVirtual(time.Unix(0, 0)),
	})
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("a", 1, 5)))
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("a", 2, 5)))
	st := v.Stats()
	if st.Published != 1 || st.Suppressed != 1 {
		t.Fatalf("published=%d suppressed=%d", st.Published, st.Suppressed)
	}
}

func TestInsightVertexLive(t *testing.T) {
	// End-to-end: running fact vertices feed a running insight vertex over
	// the broker.
	bus := stream.NewBroker(0)
	clock := sim.NewVirtual(time.Unix(0, 0))
	fa := newFact(t, bus, &ReplayHook{ID: "a", Trace: []float64{100}}, func(c *FactConfig) { c.Clock = clock })
	fb := newFact(t, bus, &ReplayHook{ID: "b", Trace: []float64{200}}, func(c *FactConfig) { c.Clock = clock })
	iv, err := NewInsightVertex(InsightConfig{
		Metric: "sum", Inputs: []telemetry.MetricID{"a", "b"},
		Builder: Sum, Bus: bus, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := iv.Start(); err != nil {
		t.Fatal(err)
	}
	defer iv.Stop()
	if err := fa.Start(); err != nil {
		t.Fatal(err)
	}
	defer fa.Stop()
	if err := fb.Start(); err != nil {
		t.Fatal(err)
	}
	defer fb.Stop()

	awaitTuple(t, bus, "sum", func(in telemetry.Info) bool { return in.Value == 300 })
	iv.Stop()
	if latest, ok := iv.Latest(); !ok || latest.Value != 300 {
		t.Fatalf("history latest=%v ok=%v, want the published 300", latest, ok)
	}
}

func TestBuilders(t *testing.T) {
	in := []telemetry.Info{
		telemetry.NewFact("a", 1, 1),
		telemetry.NewFact("b", 1, 5),
		telemetry.NewFact("c", 1, 3),
	}
	if Sum(in) != 9 || Max(in) != 5 {
		t.Fatalf("builders wrong: sum=%f max=%f", Sum(in), Max(in))
	}
	empty := []telemetry.Info{}
	if Sum(empty) != 0 || Max(empty) != 0 {
		t.Fatal("empty builders nonzero")
	}
}

func TestGraphRegistration(t *testing.T) {
	bus := stream.NewBroker(0)
	g := NewGraph()
	f := newFact(t, bus, counterHook("f1"), nil)
	if err := g.RegisterFact(f); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterFact(f); err == nil {
		t.Fatal("duplicate fact accepted")
	}
	i1, _ := NewInsightVertex(InsightConfig{Metric: "i1", Inputs: []telemetry.MetricID{"f1"}, Builder: Sum, Bus: bus})
	if err := g.RegisterInsight(i1); err != nil {
		t.Fatal(err)
	}
	if v, ok := g.Lookup("i1"); !ok || v != Vertex(i1) {
		t.Fatal("lookup failed")
	}
	if v, ok := g.Lookup("f1"); !ok || v != Vertex(f) {
		t.Fatal("fact lookup failed")
	}
	if !g.Unregister("i1") || g.Unregister("i1") {
		t.Fatal("unregister semantics")
	}
}

func TestGraphCycleRejected(t *testing.T) {
	bus := stream.NewBroker(0)
	g := NewGraph()
	a, _ := NewInsightVertex(InsightConfig{Metric: "A", Inputs: []telemetry.MetricID{"B"}, Builder: Sum, Bus: bus})
	b, _ := NewInsightVertex(InsightConfig{Metric: "B", Inputs: []telemetry.MetricID{"A"}, Builder: Sum, Bus: bus})
	if err := g.RegisterInsight(a); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterInsight(b); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestGraphStartStopAll(t *testing.T) {
	bus := stream.NewBroker(0)
	clock := sim.NewVirtual(time.Unix(0, 0))
	g := NewGraph()
	f := newFact(t, bus, counterHook("f"), func(c *FactConfig) { c.Clock = clock })
	g.RegisterFact(f)
	iv, _ := NewInsightVertex(InsightConfig{Metric: "i", Inputs: []telemetry.MetricID{"f"}, Builder: Sum, Bus: bus, Clock: clock})
	g.RegisterInsight(iv)
	if err := g.StartAll(); err != nil {
		t.Fatal(err)
	}
	awaitTuple(t, bus, "i", anyTuple)
	g.StopAll()
	if _, ok := iv.Latest(); !ok {
		t.Fatal("published insight missing from the history")
	}
}

func BenchmarkFactPollPublish(b *testing.B) {
	bus := stream.NewBroker(1 << 12)
	hook := HookFunc{ID: "m", Fn: func() (float64, error) { return float64(time.Now().UnixNano()), nil }}
	v, err := NewFactVertex(FactConfig{
		Hook: hook, Bus: bus,
		Controller: adaptive.NewFixed(time.Second),
		Clock:      sim.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.PollOnce()
	}
}

// TestFactStopWithLongInterval: Stop returns at once however long the wait
// for the next poll, on the wall clock and on a virtual clock nobody
// advances — the end of the vertex's context fires its poll timer.
func TestFactStopWithLongInterval(t *testing.T) {
	for _, c := range []struct {
		name  string
		clock sim.Clock
	}{{"wall", sim.Wall{}}, {"virtual", sim.NewVirtual(time.Unix(0, 0))}} {
		t.Run(c.name, func(t *testing.T) {
			bus := stream.NewBroker(0)
			v := newFact(t, bus, counterHook("m"), func(cfg *FactConfig) {
				cfg.Clock = c.clock
				cfg.Controller = adaptive.NewFixed(time.Hour)
			})
			if err := v.Start(); err != nil {
				t.Fatal(err)
			}
			awaitTuple(t, bus, "m", anyTuple)
			stopped := make(chan struct{})
			go func() {
				v.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(time.Second):
				t.Fatal("Stop still waiting after 1s")
			}
		})
	}
}
