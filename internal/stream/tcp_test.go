package stream

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

func startServer(t testing.TB) (*Broker, *Server) {
	t.Helper()
	b := NewBroker(0)
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	return b, s
}

func dialT(t testing.TB, s *Server, opts ...Option) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// followT dials addr and follows topic past afterID, handing back the
// subscription behind the cursor so a test can read its channel, Close it and
// check Err.
func followT(t testing.TB, addr, topic string, afterID uint64, opts ...Option) (*subscription, error) {
	t.Helper()
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cur, err := c.Follow(context.Background(), topic, afterID)
	if err != nil {
		return nil, err
	}
	return cur.(*subscription), nil
}

// holdServer reads request frames and answers each only when the test
// releases it: every request it reads is handed to the test on held, and a
// payload sent on the request's answer channel goes back as its OK answer
// (closing the channel sends an empty one). A request of any op can so be
// held back without the server parking on anything.
type holdServer struct {
	addr string
	held chan heldRequest
}

// heldRequest is one request a holdServer read and has not answered.
type heldRequest struct {
	op     byte
	answer chan []byte // the test sends the answer's payload, or closes it
}

func startHoldServer(t *testing.T) *holdServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &holdServer{addr: ln.Addr().String(), held: make(chan heldRequest, 16)}
	done := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		close(done)
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-done
				conn.Close()
			}()
			go func() {
				defer wg.Done()
				h.serve(conn, done)
			}()
		}
	}()
	return h
}

// serve reads conn's requests one at a time, answering each once released.
func (h *holdServer) serve(conn net.Conn, done <-chan struct{}) {
	r := bufio.NewReader(conn)
	for {
		op, _, err := readFrame(r)
		if err != nil {
			return
		}
		req := heldRequest{op: op, answer: make(chan []byte)}
		select {
		case h.held <- req:
		case <-done:
			return
		}
		var resp []byte
		select {
		case resp = <-req.answer:
		case <-done:
			return
		}
		if writeFrame(conn, statusOK, resp) != nil {
			return
		}
	}
}

// next returns the next request the server read, failing t if none arrives
// within five seconds.
func (h *holdServer) next(t *testing.T) heldRequest {
	t.Helper()
	select {
	case req := <-h.held:
		return req
	case <-time.After(5 * time.Second):
	}
	t.Fatal("no request reached the hold server")
	return heldRequest{}
}

// TestQueuedCallHonoursContext: a call queued behind an unanswered request
// returns when its own context ends, not when the request ahead of it gives
// up. Its answer would never be read, so the connection goes with it, and the
// request ahead fails too.
func TestQueuedCallHonoursContext(t *testing.T) {
	h := startHoldServer(t)
	c, err := Dial(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ahead, err := c.send(context.Background(), opPing, nil)
	if err != nil {
		t.Fatal(err)
	}
	aheadErr := make(chan error, 1)
	go func() { aheadErr <- c.await(context.Background(), ahead, nil) }()
	h.next(t) // read by the server, never to be answered

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := c.Ping(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Ping: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("queued Ping with a 100ms deadline returned after %v", d)
	}
	select {
	case err := <-aheadErr:
		if err == nil {
			t.Fatal("the request ahead was answered on a connection given up")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the request ahead outlived its connection")
	}
}

// TestRangeRefusesOversizedCount: a Range answer whose entry count its frame
// cannot hold fails as a transport error before anything is allocated for
// the entries it claims.
func TestRangeRefusesOversizedCount(t *testing.T) {
	h := startHoldServer(t)
	c, err := Dial(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		_, err := c.Range(context.Background(), "t", 1, 1<<20, 0)
		errc <- err
	}()
	for i := 0; i < defaultTiming.attempts; i++ { // Range retries a transport error
		h.next(t).answer <- (&enc{}).u32(1 << 20).b // a million entries, none sent
	}
	err = <-errc
	runtime.ReadMemStats(&after)
	if !IsTransient(err) {
		t.Fatalf("Range of a truncated answer: err = %v, want a transport error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Range allocated %d bytes for an answer that holds no entry", got)
	}
}

func TestTCPPublishLatest(t *testing.T) {
	_, s := startServer(t)
	c := dialT(t, s)
	id, err := c.Publish(context.Background(), "cap", []byte("42"))
	if err != nil || id != 1 {
		t.Fatalf("id=%d err=%v", id, err)
	}
	e, err := c.Latest(context.Background(), "cap")
	if err != nil || string(e.Payload) != "42" {
		t.Fatalf("entry=%v err=%v", e, err)
	}
}

func TestTCPRange(t *testing.T) {
	b, s := startServer(t)
	c := dialT(t, s)
	for i := 1; i <= 10; i++ {
		b.Publish(context.Background(), "m", []byte{byte(i)})
	}
	es, err := c.Range(context.Background(), "m", 2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 4 || es[0].ID != 2 || es[3].ID != 5 {
		t.Fatalf("Range=%v", es)
	}
}

func TestTCPErrorMapping(t *testing.T) {
	_, s := startServer(t)
	c := dialT(t, s)
	if _, err := c.Latest(context.Background(), "ghost"); !errors.Is(err, ErrNoSuchTopic) {
		t.Fatalf("err=%v", err)
	}
	if _, err := c.Publish(context.Background(), "t", nil); !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("err=%v", err)
	}
}

// TestTCPReplicateRejectsEmptyPayload: a replicate frame carrying an entry
// no leader could have acked (publish refuses an empty payload) is refused
// whole, before the epoch is adopted or anything is appended or truncated.
func TestTCPReplicateRejectsEmptyPayload(t *testing.T) {
	b, s := startServer(t)
	reg := obs.NewRegistry()
	c := dialT(t, s, WithObs(reg))
	ctx := context.Background()
	if _, err := c.Replicate("t", 1, []Entry{{ID: 1, Payload: []byte("a")}, {ID: 2, Payload: []byte("b")}})(); err != nil {
		t.Fatal(err)
	}
	_, err := c.Replicate("t", 2, []Entry{{ID: 2, Payload: []byte("c")}, {ID: 3, Payload: nil}})()
	if !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("err=%v want ErrEmptyPayload", err)
	}
	if epoch, tail, _ := b.TopicTail(ctx, "t"); epoch != 1 || tail != 2 {
		t.Fatalf("TopicTail = (%d, %d) after the refused frame, want (1, 2)", epoch, tail)
	}
	if e, _ := b.Latest(ctx, "t"); string(e.Payload) != "b" {
		t.Fatalf("entry 2 = %q after the refused frame, want %q", e.Payload, "b")
	}
	if n := reg.Counter("stream_client_reconnects_total").Value(); n != 0 {
		t.Fatalf("%d reconnects: the refusal cost the connection", n)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping on the same connection: %v", err)
	}
}

// TestTCPPipelinedAnswersWholeAndInOrder: a client that writes requests back
// to back — a publish on a fabric server, which the connection's second
// goroutine answers because it can park, then a ping, which the reading
// goroutine could answer in place — reads whole answers in request order. The
// two goroutines share one writer; run under -race this is the guard on its
// having one owner at a time.
func TestTCPPipelinedAnswersWholeAndInOrder(t *testing.T) {
	b, s := startServer(t)
	ring := cluster.NewRing(16)
	ring.Join("solo", s.Addr())
	node, err := NewFabricNode(FabricConfig{
		ID: "solo", Broker: b, Ring: ring,
		Leases: cluster.NewLeaseTable(sim.Wall{}, time.Minute), ReplicationFactor: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFabric(node)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	const pairs = 200
	var reqs bytes.Buffer
	publish := (&enc{}).str("pipe").u32(1).bytes([]byte("payload")).b
	for i := 0; i < pairs; i++ {
		writeFrame(&reqs, opPublishBatch, publish)
		writeFrame(&reqs, opPing, nil)
	}
	go conn.Write(reqs.Bytes())
	r := bufio.NewReader(conn)
	for i := 0; i < pairs; i++ {
		status, resp, err := readFrame(r)
		d := &buf{b: resp}
		if first, n := d.u64(), d.u32(); err != nil || status != statusOK || d.err != nil || first != uint64(i+1) || n != 1 {
			t.Fatalf("answer %d: status %d payload %x err %v, want publish ack for id %d", 2*i, status, resp, err, i+1)
		}
		if status, resp, err = readFrame(r); err != nil || status != statusOK || len(resp) != 0 {
			t.Fatalf("answer %d: status %d payload %x err %v, want the ping's empty ack", 2*i+1, status, resp, err)
		}
	}
}

func TestTCPSubscriptionStream(t *testing.T) {
	b, s := startServer(t)
	sub, err := followT(t, s.Addr(), "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const n = 25
	go func() {
		for i := 1; i <= n; i++ {
			b.Publish(context.Background(), "m", []byte{byte(i)})
		}
	}()
	for i := 1; i <= n; i++ {
		select {
		case e, ok := <-sub.ch:
			if !ok {
				t.Fatalf("stream closed early at %d: %v", i, sub.Err())
			}
			if e.ID != uint64(i) {
				t.Fatalf("id=%d want %d", e.ID, i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("subscription stalled at %d", i)
		}
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if sub.Err() != nil {
		t.Fatalf("Err=%v", sub.Err())
	}
}

func TestTCPSubscriptionFromOffset(t *testing.T) {
	b, s := startServer(t)
	for i := 1; i <= 5; i++ {
		b.Publish(context.Background(), "m", []byte{byte(i)})
	}
	sub, err := followT(t, s.Addr(), "m", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	e := <-sub.ch
	if e.ID != 4 {
		t.Fatalf("first id=%d want 4", e.ID)
	}
}

func TestTCPTopics(t *testing.T) {
	b, s := startServer(t)
	c := dialT(t, s)
	b.Publish(context.Background(), "b-topic", []byte("x"))
	b.Publish(context.Background(), "a-topic", []byte("x"))
	names, err := c.Topics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a-topic" || names[1] != "b-topic" {
		t.Fatalf("Topics=%v", names)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	_, s := startServer(t)
	const clients, per = 4, 100
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				if _, err := c.Publish(context.Background(), "shared", []byte{byte(i), byte(j)}); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	c := dialT(t, s)
	e, err := c.Latest(context.Background(), "shared")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != clients*per {
		t.Fatalf("latest id=%d want %d", e.ID, clients*per)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	b := NewBroker(0)
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTCPPublish(b *testing.B) {
	_, s := startServer(b)
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Publish(context.Background(), "bench", payload); err != nil {
			b.Fatal(err)
		}
	}
}
