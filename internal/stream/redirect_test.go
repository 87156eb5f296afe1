package stream

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// countingClock wraps a clock and counts After calls — every backoff wait
// in the client goes through the clock's After, so the count is exactly the
// number of backoff timers armed.
type countingClock struct {
	sim.Clock
	afters atomic.Int64
}

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.afters.Add(1)
	return c.Clock.After(d)
}

// redirectServer answers every request with a not-leader redirect to addr.
func redirectServer(t *testing.T, target string) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go serveRedirects(ln, target)
	return ln.Addr().String(), func() { ln.Close() }
}

// serveRedirects answers every request on ln with a not-leader redirect to
// target until ln closes.
func serveRedirects(ln net.Listener, target string) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			r := bufio.NewReader(conn)
			w := bufio.NewWriter(conn)
			for {
				if _, _, err := readFrame(r); err != nil {
					return
				}
				nl := &NotLeaderError{Topic: "t", LeaderID: "ghost", LeaderAddr: target}
				if writeFrame(w, statusErr, errPayload(nl)) != nil || w.Flush() != nil {
					return
				}
			}
		}(conn)
	}
}

// redirectLoop starts two servers that redirect to each other.
func redirectLoop(t *testing.T) (addrA, addrB string) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addrB, stopB := redirectServer(t, lnA.Addr().String())
	go serveRedirects(lnA, addrB)
	t.Cleanup(func() {
		lnA.Close()
		stopB()
	})
	return lnA.Addr().String(), addrB
}

// deadAddr returns an address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRedirectDoesNotConsumeBackoff is the regression test for the
// double-backoff bug: when a redirect races a dial failure — the server
// points the client at a leader that is already dead — one fault must arm
// the backoff timer exactly once. Redirects are routing, not faults: they
// consume neither a retry attempt nor a backoff wait.
func TestRedirectDoesNotConsumeBackoff(t *testing.T) {
	dead := deadAddr(t)
	srvAddr, stop := redirectServer(t, dead)
	defer stop()

	clock := &countingClock{Clock: sim.Wall{}}
	reg := obs.NewRegistry()
	c, err := Dial(srvAddr,
		WithSeeds(dead),
		WithObs(reg),
		func(o *options) {
			o.clock = clock
			o.attempts, o.backoffMin, o.backoffMax = 2, time.Millisecond, 2*time.Millisecond
		},
	)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	_, err = c.Publish(context.Background(), "t", []byte("x"))
	if err == nil {
		t.Fatal("publish against a dead leader should fail")
	}
	// Per cycle: redirect (free) -> dial failure (one backoff). attempts=2
	// allows exactly one backoff between the two attempts. The pre-fix
	// behavior charged the redirect its own backoff too, doubling the count.
	if got := clock.afters.Load(); got != 1 {
		t.Fatalf("backoff timers armed = %d, want exactly 1", got)
	}
	if n := reg.Counter("stream_client_redirects_total").Value(); n != 2 {
		t.Fatalf("redirects followed = %d, want 2 (one per attempt)", n)
	}
	if n := reg.Counter("stream_client_retries_total").Value(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
}

// TestRedirectFollowsLeaderWithoutRetry: a clean redirect lands on the
// leader with zero retries, zero backoff waits, and the call succeeds.
func TestRedirectFollowsLeaderWithoutRetry(t *testing.T) {
	broker := NewBroker(64)
	leader, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer leader.Close()
	srvAddr, stop := redirectServer(t, leader.Addr())
	defer stop()

	clock := &countingClock{Clock: sim.Wall{}}
	reg := obs.NewRegistry()
	c, err := Dial(srvAddr, WithSeeds(leader.Addr()), WithObs(reg), func(o *options) { o.clock = clock })
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	id, err := c.Publish(context.Background(), "t", []byte("x"))
	if err != nil || id != 1 {
		t.Fatalf("publish after redirect: id=%d err=%v", id, err)
	}
	if got := clock.afters.Load(); got != 0 {
		t.Fatalf("clean redirect armed %d backoff timers, want 0", got)
	}
	if retries, redirects := reg.Counter("stream_client_retries_total").Value(), reg.Counter("stream_client_redirects_total").Value(); retries != 0 || redirects != 1 {
		t.Fatalf("retries=%d redirects=%d, want 0/1", retries, redirects)
	}
}

// TestRedirectBudgetBounded: a redirect loop (two servers pointing at each
// other) terminates once the redirect budget is exhausted instead of ping-ponging
// forever.
func TestRedirectBudgetBounded(t *testing.T) {
	addrA, addrB := redirectLoop(t)
	reg := obs.NewRegistry()
	c, err := Dial(addrA,
		WithSeeds(addrB),
		WithObs(reg),
		func(o *options) { o.redirects, o.attempts = 3, 1 },
		func(o *options) { o.backoffMin, o.backoffMax = time.Millisecond, 2*time.Millisecond },
	)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_, err = c.Publish(context.Background(), "t", []byte("x"))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("looping redirect: got %v, want ErrNotLeader", err)
	}
	if n := reg.Counter("stream_client_redirects_total").Value(); n != 3 {
		t.Fatalf("redirects = %d, want MaxRedirects=3", n)
	}
}

// TestSubscribeDuringRedirects is the -race regression test for
// Client.Subscribe reading the client's address without the lock while
// redirects rewrite it.
func TestSubscribeDuringRedirects(t *testing.T) {
	addrA, addrB := redirectLoop(t)
	c, err := Dial(addrA, WithSeeds(addrB), func(o *options) { o.redirects, o.attempts = 3, 1 })
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < 50; i++ {
			c.Publish(ctx, "t", []byte("x")) // bounces A -> B -> A, rewriting the address
		}
	}()
	for i := 0; i < 50; i++ {
		sctx, cancel := context.WithCancel(ctx)
		ch, err := c.Subscribe(sctx, "t", 0)
		cancel()
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		for range ch {
		}
	}
	<-published
}

// TestRedirectSparesRequestsInFlight: a redirect retires the connection for
// new requests only. A request still out on it (another caller's, for a topic
// the old node may well lead) reads its answer there, and Close still reaches
// it.
func TestRedirectSparesRequestsInFlight(t *testing.T) {
	h := startHoldServer(t)
	_, sB := startServer(t)
	c, err := Dial(h.addr, WithSeeds(sB.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	ping := func() ticket {
		t.Helper()
		tk, err := c.send(ctx, opPing, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	out := ping()
	held := h.next(t) // the first server withholds the answer
	c.redirectTo(sB.Addr())
	if err := c.Ping(ctx); err != nil || c.Addr() != sB.Addr() {
		t.Fatalf("ping after the redirect: %v at %s, want <nil> at %s", err, c.Addr(), sB.Addr())
	}
	close(held.answer)
	if err := c.await(ctx, out, nil); err != nil {
		t.Fatalf("request in flight across the redirect: %v", err)
	}
	c.mu.Lock()
	left := len(c.retired)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d retired connections kept after their last answer", left)
	}

	// Retired with a request that will never be answered: Close ends it.
	c.redirectTo(h.addr)
	out = ping()
	h.next(t)
	c.redirectTo(sB.Addr())
	done := make(chan error, 1)
	go func() { done <- c.await(ctx, out, nil) }()
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request on a closed client returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not reach the retired connection's request")
	}
}
