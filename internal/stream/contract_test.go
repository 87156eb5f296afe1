package stream_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stream"
)

// contractBus is one Bus under test plus a handle onto the same log that can
// publish while the Bus is parked in a blocking read: the Bus itself, except
// for a Client, which carries one request at a time.
type contractBus struct{ bus, wake stream.Bus }

// contractBuses builds every Bus the system hands to a vertex: the in-process
// broker, a TCP client over loopback, the router of a one-node fabric, and
// core's bus switch.
func contractBuses(t *testing.T) map[string]contractBus {
	t.Helper()
	served := stream.NewBroker(0)
	srv, err := stream.Serve(served, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		served.Close()
	})

	clock := sim.NewVirtual(time.Unix(0, 0))
	ring := cluster.NewRing(16)
	ring.Join("n1", "n1")
	node, err := stream.NewFabricNode(stream.FabricConfig{
		ID: "n1", Addr: "n1", Broker: stream.NewBroker(0), Ring: ring,
		Leases: cluster.NewLeaseTable(clock, time.Hour), ReplicationFactor: 1, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	svc := core.New(core.Config{})
	t.Cleanup(svc.Stop)

	broker, route := stream.NewBroker(0), node.Route()
	return map[string]contractBus{
		"broker":    {broker, broker},
		"client":    {client, served},
		"route":     {route, route},
		"busSwitch": {svc.Bus(), svc.Bus()},
	}
}

// quiet returns the goroutine count once it has held still for 20 ms.
// Goroutine exit has no completion signal, so this polls, bounded.
func quiet() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 2000 && still < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestClientCallStartsNoGoroutine: watching a cancellable ctx costs a
// round trip no goroutine of its own.
func TestClientCallStartsNoGoroutine(t *testing.T) {
	b := stream.NewBroker(0)
	defer b.Close()
	srv, err := stream.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := stream.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Ping(ctx); err != nil { // connected, handler running
		t.Fatal(err)
	}
	before := quiet()
	for i := 0; i < 1000; i++ {
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("Ping %d: %v", i, err)
		}
	}
	if after := quiet(); after != before {
		t.Fatalf("%d goroutines after 1000 calls, %d before", after, before)
	}
}

// deliveryGoroutines counts the goroutines running a subscription's delivery
// loop on the subscriber's side, by their stack frames.
func deliveryGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "stream.(*Broker).Subscribe.") ||
			strings.Contains(g, "stream.(*Subscription).") ||
			strings.Contains(g, "stream.(*Client).Subscribe") {
			n++
		}
	}
	return n
}

// TestBusContract pins the five-method Bus on every implementation.
func TestBusContract(t *testing.T) {
	for name, cb := range contractBuses(t) {
		t.Run(name, func(t *testing.T) {
			bus := cb.bus
			ctx := context.Background()
			const topic = "contract"

			// A batch gets contiguous IDs first+i, and the next batch continues.
			first, err := bus.PublishBatch(ctx, topic, [][]byte{[]byte("a"), []byte("b"), []byte("c")})
			if err != nil || first != 1 {
				t.Fatalf("first batch = (%d, %v), want (1, nil)", first, err)
			}
			if next, err := bus.PublishBatch(ctx, topic, [][]byte{[]byte("d")}); err != nil || next != first+3 {
				t.Fatalf("batch of one = (%d, %v), want (%d, nil)", next, err, first+3)
			}
			es, err := bus.Range(ctx, topic, first, first+100, 0)
			if err != nil || len(es) != 4 {
				t.Fatalf("Range = %v, %v; want 4 entries", es, err)
			}
			for i, want := range []string{"a", "b", "c", "d"} {
				if es[i].ID != first+uint64(i) || string(es[i].Payload) != want {
					t.Fatalf("entry %d = (%d, %q), want (%d, %q)", i, es[i].ID, es[i].Payload, first+uint64(i), want)
				}
			}

			// An empty batch is a no-op; one empty payload rejects the whole
			// batch with nothing appended.
			if id, err := bus.PublishBatch(ctx, topic, nil); id != 0 || err != nil {
				t.Fatalf("empty batch = (%d, %v), want (0, nil)", id, err)
			}
			if _, err := bus.PublishBatch(ctx, topic, [][]byte{[]byte("x"), nil, []byte("y")}); !errors.Is(err, stream.ErrEmptyPayload) {
				t.Fatalf("batch with an empty payload: err = %v, want ErrEmptyPayload", err)
			}
			if e, err := bus.Latest(ctx, topic); err != nil || e.ID != first+3 {
				t.Fatalf("Latest after no-op and rejected batches = (%d, %v), want id %d", e.ID, err, first+3)
			}

			// max 1 is the singular consume: the earliest entry after afterID.
			if es, err := bus.ConsumeBatch(ctx, topic, first, 1); err != nil || len(es) != 1 || es[0].ID != first+1 {
				t.Fatalf("ConsumeBatch(after %d, max 1) = %v, %v", first, es, err)
			}

			// At the tail it parks until a publish...
			got := make(chan []stream.Entry, 1)
			go func() {
				es, _ := bus.ConsumeBatch(ctx, topic, first+3, 1)
				got <- es
			}()
			if _, err := cb.wake.PublishBatch(ctx, topic, [][]byte{[]byte("late")}); err != nil {
				t.Fatal(err)
			}
			if es := <-got; len(es) != 1 || string(es[0].Payload) != "late" {
				t.Fatalf("parked ConsumeBatch woke with %v", es)
			}
			// ...or until its context ends.
			cctx, cancel := context.WithCancel(ctx)
			errc := make(chan error, 1)
			go func() {
				_, err := bus.ConsumeBatch(cctx, topic, first+4, 1)
				errc <- err
			}()
			cancel()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled ConsumeBatch: err = %v, want context.Canceled", err)
			}

			// Subscribe delivers from afterID on with one goroutine, and the end
			// of ctx closes the channel and leaves no goroutine behind.
			base := quiet()
			sctx, stop := context.WithCancel(ctx)
			ch, err := bus.Subscribe(sctx, topic, first+2)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []uint64{first + 3, first + 4} {
				if e := <-ch; e.ID != want {
					t.Fatalf("subscription delivered id %d, want %d", e.ID, want)
				}
			}
			if n := deliveryGoroutines(); n != 1 {
				t.Fatalf("%d delivery goroutines for one subscription, want 1", n)
			}
			stop()
			for range ch {
			}
			if n := quiet(); n > base {
				t.Fatalf("%d goroutines after the subscription ended, %d before it", n, base)
			}
		})
	}
}
