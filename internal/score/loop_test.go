package score

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestInsightOverRemoteClient runs a full remote topology: fact vertices
// publish to a broker served over TCP; the insight vertex lives on "another
// node", subscribed through a dialed stream.Client.
func TestInsightOverRemoteClient(t *testing.T) {
	broker := stream.NewBroker(0)
	srv, err := stream.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer broker.Close()

	clock := sim.NewVirtual(time.Unix(0, 0))
	fa := newFact(t, broker, &ReplayHook{ID: "ra", Trace: []float64{7}}, func(c *FactConfig) { c.Clock = clock })
	fb := newFact(t, broker, &ReplayHook{ID: "rb", Trace: []float64{35}}, func(c *FactConfig) { c.Clock = clock })

	remote, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	iv, err := NewInsightVertex(InsightConfig{
		Metric:  "remote.sum",
		Inputs:  []telemetry.MetricID{"ra", "rb"},
		Builder: Sum,
		Bus:     remote,
		Clock:   clock,
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

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if in, ok := iv.Latest(); ok && in.Value == 42 {
			// And the insight is published back through TCP to the broker.
			if e, err := broker.Latest(context.Background(), "remote.sum"); err == nil {
				var out telemetry.Info
				if err := out.UnmarshalBinary(e.Payload); err == nil && out.Value == 42 {
					return
				}
			}
		}
		runtime.Gosched()
	}
	in, ok := iv.Latest()
	t.Fatalf("remote insight never converged: latest=%v ok=%v", in, ok)
}
