package score

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/delphi"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func counterVertex(t *testing.T, bus stream.Bus) *FactVertex {
	t.Helper()
	n := 0.0
	v, err := NewFactVertex(FactConfig{
		Hook: HookFunc{ID: "sf.metric", Fn: func() (float64, error) {
			n++
			return n, nil
		}},
		Bus:              bus,
		Controller:       fixedController{},
		PublishUnchanged: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fixedController is a minimal adaptive.Controller for manual polling.
type fixedController struct{}

func (fixedController) Interval() time.Duration    { return time.Second }
func (fixedController) Next(float64) time.Duration { return time.Second }
func (fixedController) Reset()                     {}

// TestFactVertexStoreAndForward is the acceptance test for graceful
// degradation: a fact vertex keeps polling through a broker outage, buffers
// every tuple, reports Degraded (then Failed) health, and on recovery
// flushes the backlog in order with zero loss and zero duplication.
func TestFactVertexStoreAndForward(t *testing.T) {
	broker := stream.NewBroker(0)
	defer broker.Close()
	srv, err := stream.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	bus, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()

	v := counterVertex(t, bus)
	if h := v.Health(); h.State != HealthOK {
		t.Fatalf("initial health = %v", h.State)
	}

	for i := 0; i < 3; i++ { // healthy polls publish straight through
		v.PollOnce()
	}
	if h := v.Health(); h.State != HealthOK || h.Buffered != 0 {
		t.Fatalf("health after healthy polls = %+v", h)
	}

	srv.Close() // broker unreachable; polls must buffer, not drop
	outagePolls := int(DefaultFailAfter) + 2
	for i := 0; i < outagePolls; i++ {
		v.PollOnce()
		if i == 0 {
			if h := v.Health(); h.State != HealthDegraded {
				t.Fatalf("health after first failed publish = %+v", h)
			}
		}
	}
	h := v.Health()
	if h.State != HealthFailed {
		t.Fatalf("health after %d consecutive errors = %+v", outagePolls, h)
	}
	if h.Buffered != outagePolls {
		t.Fatalf("buffered = %d want %d", h.Buffered, outagePolls)
	}
	if h.LastError == "" {
		t.Fatal("LastError empty during outage")
	}

	srv2, err := stream.Serve(broker, addr) // recovery
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	v.PollOnce() // flushes the backlog ahead of this tuple

	h = v.Health()
	if h.State != HealthOK || h.Buffered != 0 {
		t.Fatalf("health after recovery = %+v", h)
	}
	if h.LastFlush == 0 {
		t.Fatal("LastFlush not stamped after recovery")
	}
	st := v.Stats()
	if st.Buffered != uint64(outagePolls) || st.Flushed != uint64(outagePolls) || st.BacklogDropped != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Zero lost, zero duplicated, in order: the broker must hold exactly
	// one entry per poll with strictly increasing hook values.
	total := 3 + outagePolls + 1
	entries, err := broker.Range(context.Background(), "sf.metric", 1, uint64(total)+10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != total {
		t.Fatalf("broker holds %d entries want %d", len(entries), total)
	}
	for i, e := range entries {
		var in telemetry.Info
		if err := in.UnmarshalBinary(e.Payload); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if in.Value != float64(i+1) {
			t.Fatalf("entry %d has value %v want %v (order broken)", i, in.Value, i+1)
		}
	}
}

// TestStoreAndForwardBacklogBound: a bounded backlog evicts oldest-first and
// accounts the drops instead of growing without limit.
func TestStoreAndForwardBacklogBound(t *testing.T) {
	broker := stream.NewBroker(0)
	defer broker.Close()
	srv, err := stream.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bus, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	n := 0.0
	v, err := NewFactVertex(FactConfig{
		Hook:             HookFunc{ID: "sf.bound", Fn: func() (float64, error) { n++; return n, nil }},
		Bus:              bus,
		Controller:       fixedController{},
		PublishUnchanged: true,
		HistorySize:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	for i := 0; i < 10; i++ {
		v.PollOnce()
	}
	h := v.Health()
	if h.Buffered != 4 {
		t.Fatalf("buffered = %d want 4 (bounded)", h.Buffered)
	}
	if h.Dropped != 6 {
		t.Fatalf("dropped = %d want 6", h.Dropped)
	}
}

// TestStoreAndForwardTerminalErrorsNotBuffered: application-level broker
// errors are not retryable, so they must not accumulate a backlog.
func TestStoreAndForwardTerminalErrorsNotBuffered(t *testing.T) {
	broker := stream.NewBroker(0)
	broker.Close() // every publish fails with ErrClosed (terminal)
	v := counterVertex(t, broker)
	for i := 0; i < 3; i++ {
		v.PollOnce()
	}
	h := v.Health()
	if h.Buffered != 0 {
		t.Fatalf("terminal errors buffered %d tuples", h.Buffered)
	}
	if h.State != HealthDegraded {
		t.Fatalf("state = %v want degraded", h.State)
	}
	if v.Stats().Errors != 3 {
		t.Fatalf("errors = %d want 3", v.Stats().Errors)
	}
}

// cutBus is a broker whose publish path can be cut: while down, every publish
// fails the way a lost connection does.
type cutBus struct {
	*stream.Broker
	down atomic.Bool
}

func (c *cutBus) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	if c.down.Load() {
		return 0, errDown
	}
	return c.Broker.PublishBatch(ctx, topic, payloads)
}

// TestBacklogOwnsItsPayloads: with Delphi filling the skipped ticks, every
// poll of an outage buffers a measured tuple and a batch of predictions that
// the vertex encoded into buffers its next poll overwrites. What the backlog
// flushes on recovery must still be what was buffered: every entry on the
// bus decodes, and the bus holds exactly the vertex's history.
func TestBacklogOwnsItsPayloads(t *testing.T) {
	model, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 15, SeriesPerFeature: 3, SeriesLen: 150})
	if err != nil {
		t.Fatal(err)
	}
	bus := &cutBus{Broker: stream.NewBroker(0)}
	clock := sim.NewVirtual(time.Unix(0, 0))
	n := 0.0
	v, err := NewFactVertex(FactConfig{
		Hook:       HookFunc{ID: "sf.delphi", Fn: func() (float64, error) { n++; return 100 + 10*math.Sin(n/4), nil }},
		Bus:        bus,
		Controller: adaptive.NewFixed(4 * time.Second),
		Clock:      clock,
		Delphi:     delphi.NewOnline(model),
		BaseTick:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	poll := func(times int) {
		for i := 0; i < times; i++ {
			v.PollOnce()
			clock.Advance(4 * time.Second)
		}
	}
	poll(8) // warm the window until every poll predicts
	before := v.Stats()
	bus.down.Store(true)
	poll(5)
	if st := v.Stats(); st.Buffered-before.Buffered != 5*4 || st.Predicted-before.Predicted != 5*3 {
		t.Fatalf("outage polls buffered %d tuples, %d of them predicted; want 20 and 15",
			st.Buffered-before.Buffered, st.Predicted-before.Predicted)
	}
	bus.down.Store(false)
	poll(1)
	if h := v.Health(); h.State != HealthOK || h.Buffered != 0 {
		t.Fatalf("health after recovery = %+v", h)
	}

	hist := scanAll(v, -1<<62, 1<<62)
	entries, err := bus.Range(context.Background(), "sf.delphi", 1, 1<<62, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(hist) {
		t.Fatalf("bus holds %d tuples, history %d", len(entries), len(hist))
	}
	for i, e := range entries {
		var in telemetry.Info
		if err := in.UnmarshalBinary(e.Payload); err != nil {
			t.Fatalf("entry %d: %v", e.ID, err)
		}
		if in != hist[i] {
			t.Fatalf("entry %d is %v, the vertex appended %v", e.ID, in, hist[i])
		}
	}
}

// TestInsightVertexStoreAndForward: the same buffering protects the insight
// publish path across a broker outage.
func TestInsightVertexStoreAndForward(t *testing.T) {
	broker := stream.NewBroker(0)
	defer broker.Close()
	srv, err := stream.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	bus, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	v, err := NewInsightVertex(InsightConfig{
		Metric:           "sf.sum",
		Inputs:           []telemetry.MetricID{"sf.in"},
		Builder:          Sum,
		Bus:              bus,
		PublishUnchanged: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(id uint64, val float64) {
		in := telemetry.NewFact("sf.in", int64(id), val)
		payload, err := in.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		v.ConsumeOnce(stream.Entry{ID: id, Payload: payload})
	}
	feed(1, 10)
	srv.Close()
	feed(2, 20)
	feed(3, 30)
	if h := v.Health(); h.State != HealthDegraded || h.Buffered != 2 {
		t.Fatalf("health during outage = %+v", h)
	}
	srv2, err := stream.Serve(broker, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	feed(4, 40)
	if h := v.Health(); h.State != HealthOK || h.Buffered != 0 {
		t.Fatalf("health after recovery = %+v", h)
	}
	entries, err := broker.Range(context.Background(), "sf.sum", 1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40}
	if len(entries) != len(want) {
		t.Fatalf("broker holds %d insights want %d", len(entries), len(want))
	}
	for i, e := range entries {
		var in telemetry.Info
		if err := in.UnmarshalBinary(e.Payload); err != nil {
			t.Fatal(err)
		}
		if in.Value != want[i] {
			t.Fatalf("insight %d = %v want %v", i, in.Value, want[i])
		}
	}
}
