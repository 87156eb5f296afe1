package score

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// TestFactVertexOnSharedLoop drives two vertices off one sched.Loop (the
// libuv pattern): both must poll repeatedly and re-arm their one-shot
// timers with the controller's interval.
func TestFactVertexOnSharedLoop(t *testing.T) {
	loop := sched.NewLoop(nil)
	loop.RunAsync()
	defer loop.Stop()

	bus := stream.NewBroker(0)
	mk := func(id telemetry.MetricID) *FactVertex {
		v, err := NewFactVertex(FactConfig{
			Hook:             counterHook(id),
			Bus:              bus,
			Controller:       adaptive.NewFixed(2 * time.Millisecond),
			Clock:            sched.RealClock{},
			Loop:             loop,
			PublishUnchanged: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	va, vb := mk("loop.a"), mk("loop.b")
	if err := va.Start(); err != nil {
		t.Fatal(err)
	}
	defer va.Stop()
	if err := vb.Start(); err != nil {
		t.Fatal(err)
	}
	defer vb.Stop()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		// Published, not Polls: a poll is counted before its tuple is on the bus.
		if va.Stats().Published >= 3 && vb.Stats().Published >= 3 {
			break
		}
		runtime.Gosched()
	}
	if va.Stats().Published < 3 || vb.Stats().Published < 3 {
		t.Fatalf("loop-driven polls: a=%d b=%d", va.Stats().Polls, vb.Stats().Polls)
	}
	// Facts actually reached the bus.
	if n, _ := bus.Published("loop.a"); n < 3 {
		t.Fatalf("published=%d", n)
	}
	// Stopping a vertex stops its polling promptly: wait (sleep-free) for
	// the still-running sibling to take several more polls — proof the loop
	// kept ticking — and check the stopped vertex took at most the one poll
	// that may already have been in flight.
	va.Stop()
	p, q := va.Stats().Polls, vb.Stats().Polls
	deadline = time.Now().Add(3 * time.Second)
	for vb.Stats().Polls < q+5 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if vb.Stats().Polls < q+5 {
		t.Fatalf("sibling vertex stalled after Stop: %d -> %d", q, vb.Stats().Polls)
	}
	if va.Stats().Polls > p+1 {
		t.Fatalf("vertex kept polling after Stop: %d -> %d", p, va.Stats().Polls)
	}
}

// TestFactVertexLoopStoppedLoop verifies a vertex exits cleanly when its
// shared loop has already been stopped.
func TestFactVertexLoopStoppedLoop(t *testing.T) {
	loop := sched.NewLoop(nil)
	loop.RunAsync()
	loop.Stop()

	bus := stream.NewBroker(0)
	v, err := NewFactVertex(FactConfig{
		Hook:       counterHook("dead.loop"),
		Bus:        bus,
		Controller: adaptive.NewFixed(time.Millisecond),
		Clock:      sched.RealClock{},
		Loop:       loop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	// The first poll happens inline; the re-arm fails and the vertex goroutine
	// exits. Stop must not hang.
	done := make(chan struct{})
	go func() {
		v.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung on a dead loop")
	}
}

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
