package stream

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// fastOpts keeps retry/backoff latencies test-sized.
func fastOpts() []Option {
	return []Option{func(o *options) {
		o.timing = timing{
			dialTimeout: time.Second, ioTimeout: 500 * time.Millisecond, attempts: 10,
			backoffMin: time.Millisecond, backoffMax: 20 * time.Millisecond, redirects: 4,
		}
	}}
}

func TestChaosDialRefused(t *testing.T) {
	_, s := startServer(t)
	chaos := NewChaos(ChaosConfig{Seed: 1, RefuseProb: 1})
	if _, err := Dial(s.Addr(), withChaos(chaos), func(o *options) { o.dialTimeout = time.Second }); err == nil {
		t.Fatal("expected refused dial")
	}
	if !IsTransient(&transportError{errors.New("x")}) {
		t.Fatal("transport errors must classify as transient")
	}
	if IsTransient(ErrNoSuchTopic) || IsTransient(ErrClosed) {
		t.Fatal("broker sentinel errors must classify as terminal")
	}
	if st := chaos.Stats(); st.Refused != 1 || st.Dials != 1 {
		t.Fatalf("chaos stats = %+v", st)
	}
}

func TestChaosSeededDeterminism(t *testing.T) {
	a, b := NewChaos(ChaosConfig{Seed: 7, ResetProb: 0.3}), NewChaos(ChaosConfig{Seed: 7, ResetProb: 0.3})
	for i := 0; i < 200; i++ {
		var ha, hb uint64
		if a.roll(0.3, &ha) != b.roll(0.3, &hb) {
			t.Fatalf("schedules diverge at op %d", i)
		}
	}
}

// TestClientSurvivesInjectedResets drives idempotent reads through a dialer
// that resets connections and injects latency; the retry/reconnect layer
// must hide every fault.
func TestClientSurvivesInjectedResets(t *testing.T) {
	b, s := startServer(t)
	for i := 1; i <= 20; i++ {
		b.Publish(context.Background(), "m", []byte{byte(i)})
	}
	chaos := NewChaos(ChaosConfig{Seed: 42, ResetProb: 0.08, DelayProb: 0.2, Delay: time.Millisecond})
	reg := obs.NewRegistry()
	c, err := Dial(s.Addr(), append(fastOpts(), withChaos(chaos), WithObs(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		e, err := c.Latest(context.Background(), "m")
		if err != nil {
			t.Fatalf("Latest %d: %v", i, err)
		}
		if e.ID != 20 {
			t.Fatalf("Latest id=%d want 20", e.ID)
		}
		es, err := c.Range(context.Background(), "m", 1, 20, 0)
		if err != nil {
			t.Fatalf("Range %d: %v", i, err)
		}
		if len(es) != 20 {
			t.Fatalf("Range len=%d want 20", len(es))
		}
		if _, err := c.Topics(context.Background()); err != nil {
			t.Fatalf("Topics %d: %v", i, err)
		}
	}
	if chaos.Stats().Resets == 0 {
		t.Fatal("chaos injected no resets; test exercised nothing")
	}
	if reg.Counter("stream_client_reconnects_total").Value() == 0 {
		t.Fatal("client never reconnected despite resets")
	}
}

// TestClientSurvivesCorruptionAndPartialWrites covers the remaining fault
// modes on the read-only path: corrupt bytes desync the framing and partial
// writes tear the request; both must be retried transparently.
func TestClientSurvivesCorruptionAndPartialWrites(t *testing.T) {
	b, s := startServer(t)
	b.Publish(context.Background(), "m", []byte("payload"))
	chaos := NewChaos(ChaosConfig{Seed: 3, CorruptProb: 0.05, PartialWriteProb: 0.05})
	c, err := Dial(s.Addr(), append(fastOpts(), withChaos(chaos))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		if _, err := c.Latest(context.Background(), "m"); err != nil {
			t.Fatalf("Latest %d: %v", i, err)
		}
	}
	st := chaos.Stats()
	if st.Corrupted == 0 && st.Partials == 0 {
		t.Fatal("chaos injected no corruption/partials")
	}
}

// TestRoundTripDropsDeadConn is the regression test for the seed bug where a
// broken connection stayed installed: after the server bounces, the next
// idempotent call must reconnect instead of reusing the dead socket.
func TestRoundTripDropsDeadConn(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	b.Publish(context.Background(), "m", []byte("x"))
	reg := obs.NewRegistry()
	c, err := Dial(addr, append(fastOpts(), WithObs(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Latest(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	s.Close() // kill every conn; the client's socket is now dead
	s2, err := Serve(b, addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()
	e, err := c.Latest(context.Background(), "m") // must drop the dead conn and re-dial
	if err != nil {
		t.Fatalf("Latest after restart: %v", err)
	}
	if string(e.Payload) != "x" {
		t.Fatalf("payload=%q", e.Payload)
	}
	if reg.Counter("stream_client_reconnects_total").Value() == 0 {
		t.Fatal("client did not reconnect")
	}
}

// TestPublishNotRetriedButConnRecovers: mutating ops surface the transport
// error (no duplicate risk) but the next call gets a fresh connection.
func TestPublishNotRetriedButConnRecovers(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c, err := Dial(addr, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Publish(context.Background(), "m", []byte("a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.Publish(context.Background(), "m", []byte("b")); err == nil {
		t.Fatal("publish against dead server must error, not silently retry")
	} else if !IsTransient(err) {
		t.Fatalf("want transient transport error, got %v", err)
	}
	s2, err := Serve(b, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	id, err := c.Publish(context.Background(), "m", []byte("b"))
	if err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if id != 2 {
		t.Fatalf("id=%d want 2 (no duplicate from blind retry)", id)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

// TestSubscriptionResumesAcrossServerRestart is the acceptance chaos test:
// the server is killed and restarted mid-stream while a publisher keeps
// appending to the broker; a resumed subscription must observe every entry
// exactly once, in order.
func TestSubscriptionResumesAcrossServerRestart(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	const total = 120
	reg := obs.NewRegistry()
	sub, err := followT(t, addr, "m", 0, append(fastOpts(), WithObs(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for i := 1; i <= 40; i++ {
		b.Publish(context.Background(), "m", []byte{byte(i)})
	}
	recv := make([]Entry, 0, total)
	collect := func(n int) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for len(recv) < n {
			select {
			case e, ok := <-sub.ch:
				if !ok {
					t.Fatalf("subscription died at %d entries: %v", len(recv), sub.Err())
				}
				recv = append(recv, e)
			case <-deadline:
				t.Fatalf("stalled at %d/%d entries", len(recv), n)
			}
		}
	}
	collect(40)

	s.Close() // outage: entries 41..80 published while the server is down
	for i := 41; i <= 80; i++ {
		b.Publish(context.Background(), "m", []byte{byte(i)})
	}
	s2, err := Serve(b, addr)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	collect(80)

	s2.Close() // second outage, then restart again
	s3, err := Serve(b, addr)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer s3.Close()
	for i := 81; i <= total; i++ {
		b.Publish(context.Background(), "m", []byte{byte(i)})
	}
	collect(total)

	for i, e := range recv {
		if e.ID != uint64(i+1) {
			t.Fatalf("entry %d has id %d: lost or duplicated", i, e.ID)
		}
	}
	if reg.Counter("stream_sub_resumes_total").Value() == 0 {
		t.Fatal("subscription never resumed; restarts were not exercised")
	}
}

// TestSubscriptionSurvivesInjectedResets streams through a chaos dialer that
// resets connections mid-stream; resume+dedup must deliver an unbroken
// ordered sequence.
func TestSubscriptionSurvivesInjectedResets(t *testing.T) {
	b, s := startServer(t)
	chaos := NewChaos(ChaosConfig{Seed: 9, ResetProb: 0.01, DelayProb: 0.05, Delay: time.Millisecond})
	reg := obs.NewRegistry()
	sub, err := followT(t, s.Addr(), "m", 0, append(fastOpts(), withChaos(chaos), WithObs(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const total = 300
	go func() {
		for i := 1; i <= total; i++ {
			b.Publish(context.Background(), "m", []byte{byte(i)})
			// Yield (never sleep) so delivery interleaves with publishing
			// and resets land mid-stream rather than after a single burst.
			runtime.Gosched()
		}
	}()
	want := uint64(1)
	deadline := time.After(20 * time.Second)
	for want <= total {
		select {
		case e, ok := <-sub.ch:
			if !ok {
				t.Fatalf("stream ended at %d: %v", want, sub.Err())
			}
			if e.ID != want {
				t.Fatalf("got id %d want %d", e.ID, want)
			}
			want++
		case <-deadline:
			t.Fatalf("stalled at id %d (resumes=%d)", want, reg.Counter("stream_sub_resumes_total").Value())
		}
	}
	if chaos.Stats().Resets == 0 {
		t.Skip("chaos schedule injected no resets this run")
	}
}

// TestSubscriptionCloseWithAbandonedConsumer: the reader goroutine must exit
// on Close even when the consumer stopped draining and the channel is full.
func TestSubscriptionCloseWithAbandonedConsumer(t *testing.T) {
	b, s := startServer(t)
	sub, err := followT(t, s.Addr(), "m", 0, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // overflow the 64-entry channel buffer
		b.Publish(context.Background(), "m", []byte{byte(i)})
	}
	// Wait (sleep-free) until the reader has filled all 64 channel slots:
	// last is stored only after a successful channel send, so once it
	// reaches the buffer size with no consumer draining, the reader is
	// blocked on the 65th send.
	deadline65 := time.Now().Add(5 * time.Second)
	for sub.last.Load() < 64 {
		if time.Now().After(deadline65) {
			t.Fatalf("reader never filled the channel: last=%d", sub.last.Load())
		}
		runtime.Gosched()
	}
	done := make(chan struct{})
	go func() {
		sub.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on abandoned consumer")
	}
	if sub.Err() != nil {
		t.Fatalf("Err=%v", sub.Err())
	}
}

// TestSubscriptionTerminalOnBrokerClose: an application-level error ends the
// stream instead of resuming forever.
func TestSubscriptionTerminalOnBrokerClose(t *testing.T) {
	b, s := startServer(t)
	sub, err := followT(t, s.Addr(), "m", 0, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	b.Publish(context.Background(), "m", []byte("x"))
	<-sub.ch
	b.Close() // broker (not just the transport) goes away
	select {
	case _, ok := <-sub.ch:
		if ok {
			t.Fatal("unexpected entry after broker close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not terminate on broker close")
	}
	if !errors.Is(sub.Err(), ErrClosed) {
		t.Fatalf("Err=%v want ErrClosed", sub.Err())
	}
}

// TestServerSideChaosWrapper: faults injected on the server's accepted conns
// are equally survivable by the resilient client.
func TestServerSideChaosWrapper(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	chaos := NewChaos(ChaosConfig{Seed: 11, ResetProb: 0.05})
	s, err := Serve(b, "127.0.0.1:0", func(s *Server) { s.wrap = chaos.Wrap })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b.Publish(context.Background(), "m", []byte("x"))
	c, err := Dial(s.Addr(), fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 40; i++ {
		if _, err := c.Latest(context.Background(), "m"); err != nil {
			t.Fatalf("Latest %d: %v", i, err)
		}
	}
	if chaos.Stats().Resets == 0 {
		t.Skip("chaos schedule injected no resets this run")
	}
}

// TestIOTimeoutOnUnresponsiveServer: a server that accepts but never
// responds must not hang non-blocking operations — the per-frame read
// deadline turns the black hole into a transport error within IOTimeout.
func TestIOTimeoutOnUnresponsiveServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accept and swallow bytes, never reply
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	c, err := Dial(ln.Addr().String(), func(o *options) {
		o.timing = timing{
			dialTimeout: time.Second, ioTimeout: 150 * time.Millisecond, attempts: 2,
			backoffMin: time.Millisecond, backoffMax: 5 * time.Millisecond, redirects: 4,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Latest(context.Background(), "m"); err == nil {
		t.Fatal("expected timeout error")
	} else if !IsTransient(err) {
		t.Fatalf("want transient timeout, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("call hung for %v despite IO timeout", d)
	}
}
