package stream_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stream"
)

// contractBus is one Bus under test and what closes the broker underneath
// it.
type contractBus struct {
	bus   stream.Bus
	close func()
}

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
	routed := stream.NewBroker(0)
	node, err := stream.NewFabricNode(stream.FabricConfig{
		ID: "n1", Broker: routed, Ring: ring,
		Leases: cluster.NewLeaseTable(clock, time.Hour), ReplicationFactor: 1, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	svc := core.New(core.Config{})
	t.Cleanup(svc.Stop)

	broker, route := stream.NewBroker(0), node.Route()
	return map[string]contractBus{
		"broker":    {broker, broker.Close},
		"client":    {client, served.Close},
		"route":     {route, routed.Close},
		"busSwitch": {svc.Bus(), svc.Stop},
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

// deliveryGoroutines counts the goroutines that exist to carry a
// subscription's entries to the subscriber's own goroutine, by their stack
// frames: a subscription's connection reader, and anything started by a
// Follow or a Subscribe.
func deliveryGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "stream.(*subscription).") ||
			strings.Contains(g, ").Follow.") || strings.Contains(g, ").Subscribe.") {
			n++
		}
	}
	return n
}

// TestBusContract pins the four-method Bus on every implementation.
func TestBusContract(t *testing.T) {
	if n := reflect.TypeOf((*stream.Bus)(nil)).Elem().NumMethod(); n != 4 {
		t.Fatalf("Bus has %d methods, want 4: PublishBatch, Latest, Range, Follow", n)
	}
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

			// Follow delivers strictly after afterID, in runs that continue one
			// another and never exceed subscribeSlack, from the caller's own
			// goroutine: nothing is started to deliver them, except the
			// connection reader a Client's subscription has anyway.
			const slack, more = 64, 200
			many := make([][]byte, more)
			for i := range many {
				many[i] = []byte{byte(i) + 1}
			}
			if _, err := bus.PublishBatch(ctx, topic, many); err != nil {
				t.Fatal(err)
			}
			base := quiet()
			sctx, stop := context.WithCancel(ctx)
			cur, err := bus.Follow(sctx, topic, first+2)
			if err != nil {
				t.Fatal(err)
			}
			next, tail := first+3, first+4+more
			for next < tail {
				run, err := cur.Next()
				if err != nil || len(run) == 0 || len(run) > slack {
					t.Fatalf("Next = run of %d, %v; want 1..%d entries", len(run), err, slack)
				}
				for _, e := range run {
					if e.ID != next {
						t.Fatalf("cursor delivered id %d, want %d", e.ID, next)
					}
					next++
				}
			}
			want := 0
			if name == "client" {
				want = 1
			}
			if n := deliveryGoroutines(); n != want {
				t.Fatalf("%d delivery goroutines for one cursor, want %d", n, want)
			}
			// At the tail it parks until a publish, made on the Bus itself: a
			// Client's request connection is free while its cursor is parked
			// on a connection of its own.
			woke := make(chan []stream.Entry, 1)
			go func() {
				run, _ := cur.Next()
				woke <- run
			}()
			if id, err := bus.PublishBatch(ctx, topic, [][]byte{[]byte("late")}); err != nil || id != tail {
				t.Fatalf("publish beside a parked cursor = (%d, %v), want (%d, nil)", id, err, tail)
			}
			if run := <-woke; len(run) != 1 || run[0].ID != tail || string(run[0].Payload) != "late" {
				t.Fatalf("parked Next woke with %v, want entry %d", run, tail)
			}
			// At the tail it parks until its context ends, which is then its
			// error, and nothing is left behind.
			errc := make(chan error, 1)
			go func() {
				_, err := cur.Next()
				errc <- err
			}()
			stop()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Next: err = %v, want context.Canceled", err)
			}
			if n := quiet(); n > base {
				t.Fatalf("%d goroutines after the cursor ended, %d before it", n, base)
			}

			// Closing the broker ends a parked cursor with ErrClosed, and a
			// closed one refuses the next Follow.
			cur, err = bus.Follow(ctx, topic, tail)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				_, err := cur.Next()
				errc <- err
			}()
			cb.close()
			if err := <-errc; !errors.Is(err, stream.ErrClosed) {
				t.Fatalf("Next across Close: err = %v, want ErrClosed", err)
			}
			if n := quiet(); n > base {
				t.Fatalf("%d goroutines after Close, %d before the cursor", n, base)
			}
		})
	}
}
