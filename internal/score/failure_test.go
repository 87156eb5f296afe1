package score

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestFactVertexHookErrors: a failing monitor hook must not publish, must
// count errors, and must keep the previous interval so the vertex retries.
func TestFactVertexHookErrors(t *testing.T) {
	bus := stream.NewBroker(0)
	fail := true
	hook := HookFunc{ID: "flaky", Fn: func() (float64, error) {
		if fail {
			return 0, errors.New("device unreachable")
		}
		return 7, nil
	}}
	v := newFact(t, bus, hook, nil)
	next := v.PollOnce()
	if next != time.Second {
		t.Fatalf("interval after error=%v", next)
	}
	st := v.Stats()
	if st.Errors != 1 || st.Published != 0 {
		t.Fatalf("stats=%+v", st)
	}
	if _, ok := v.Latest(); ok {
		t.Fatal("error poll produced data")
	}
	// Recovery.
	fail = false
	v.PollOnce()
	if in, ok := v.Latest(); !ok || in.Value != 7 {
		t.Fatalf("after recovery latest=%v ok=%v", in, ok)
	}
}

// TestFactVertexBusClosed: publishing into a closed broker counts as an
// error but does not wedge the vertex.
func TestFactVertexBusClosed(t *testing.T) {
	bus := stream.NewBroker(0)
	v := newFact(t, bus, counterHook("m"), nil)
	bus.Close()
	v.PollOnce()
	if st := v.Stats(); st.Errors != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

// TestInsightVertexCorruptPayload: garbage on an input stream is counted
// and skipped, and valid traffic still flows.
func TestInsightVertexCorruptPayload(t *testing.T) {
	bus := stream.NewBroker(0)
	v, err := NewInsightVertex(InsightConfig{
		Metric: "sum", Inputs: []telemetry.MetricID{"a"},
		Builder: Sum, Bus: bus, Clock: sim.NewVirtual(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	v.ConsumeOnce(stream.Entry{ID: 1, Payload: []byte("garbage")})
	if st := v.Stats(); st.Errors != 1 {
		t.Fatalf("stats=%+v", st)
	}
	v.ConsumeOnce(publish(t, bus, telemetry.NewFact("a", 1, 5)))
	if in, ok := v.Latest(); !ok || in.Value != 5 {
		t.Fatalf("latest=%v ok=%v", in, ok)
	}
}

// brokenBus rejects subscriptions, so Insight Vertex Start must fail
// cleanly.
type brokenBus struct{ stream.Bus }

func (brokenBus) Follow(context.Context, string, uint64) (stream.Cursor, error) {
	return nil, errors.New("fabric down")
}

func TestInsightVertexSubscribeFailure(t *testing.T) {
	bus := stream.NewBroker(0)
	v, err := NewInsightVertex(InsightConfig{
		Metric: "i", Inputs: []telemetry.MetricID{"a"},
		Builder: Sum, Bus: brokenBus{bus},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Start(); err == nil {
		t.Fatal("start succeeded with broken bus")
	}
	// The vertex is not running; Stop is a no-op and must not hang.
	v.Stop()
}

// TestFactVertexDelphiDisabledOnTightInterval: when the controller never
// relaxes beyond the base tick, no predictions are published.
func TestFactVertexDelphiDisabledOnTightInterval(t *testing.T) {
	bus := stream.NewBroker(0)
	v := newFact(t, bus, counterHook("m"), func(c *FactConfig) {
		c.Controller = adaptive.NewFixed(time.Second)
		c.BaseTick = time.Second
		// Delphi configured but the interval never exceeds the base tick.
		c.Delphi = nil
	})
	for i := 0; i < 10; i++ {
		v.PollOnce()
	}
	if st := v.Stats(); st.Predicted != 0 {
		t.Fatalf("predicted=%d", st.Predicted)
	}
}

// TestGraphStartAllPropagatesError: a vertex that fails to start (broken
// bus) aborts StartAll.
func TestGraphStartAllPropagatesError(t *testing.T) {
	bus := stream.NewBroker(0)
	g := NewGraph()
	iv, err := NewInsightVertex(InsightConfig{
		Metric: "i", Inputs: []telemetry.MetricID{"a"}, Builder: Sum, Bus: brokenBus{bus},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterInsight(iv); err != nil {
		t.Fatal(err)
	}
	if err := g.StartAll(); err == nil {
		t.Fatal("StartAll succeeded with a broken vertex")
	}
	g.StopAll()
}
