package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// drainIDs reads n tuple frames off sub and returns their stream IDs.
func drainIDs(t *testing.T, sub *Subscriber, n int) []uint64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ids := make([]uint64, 0, n)
	for len(ids) < n {
		fr, more := sub.Next(ctx)
		if !more || fr.Type != apiv1.FrameTuple {
			t.Fatalf("frame %d of %d: %+v more=%v", len(ids)+1, n, fr, more)
		}
		ids = append(ids, fr.Tuple.StreamID)
	}
	return ids
}

func wantRun(t *testing.T, ids []uint64, first uint64) {
	t.Helper()
	for i, id := range ids {
		if id != first+uint64(i) {
			t.Fatalf("ids[%d] = %d, want %d: not contiguous in order (%v)", i, id, first+uint64(i), ids)
		}
	}
}

// TestSharedFrameBytes: the bytes every subscriber of a topic is handed are
// what the per-subscriber path used to produce — json.Marshal of the
// apiv1.Frame as the SSE data body and as the WebSocket text payload — so the
// shapes api/v1/compat_test.go pins still hold.
func TestSharedFrameBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := newHub(nil, 4, nil)
	kinds := []telemetry.Kind{telemetry.KindFact, telemetry.KindInsight}
	sources := []telemetry.Source{telemetry.Measured, telemetry.Predicted}
	for i := 0; i < 500; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		if i%7 == 0 {
			v = float64(rng.Int63n(1 << 40)) // integral values ride as bare scalars
		}
		// Long names push the payload past 125 bytes into the 16-bit
		// WebSocket length form.
		metric := telemetry.MetricID("m." + strconv.Itoa(i) + string(bytes.Repeat([]byte{'x'}, rng.Intn(120))))
		in := telemetry.Info{Metric: metric, Timestamp: rng.Int63(), Value: v, Kind: kinds[i/2%2], Source: sources[i%2]}
		payload, err := in.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		id := rng.Uint64()
		f := h.encode(stream.Entry{ID: id, Payload: payload}, string(metric))
		if f == nil {
			t.Fatalf("tuple %d (%+v) not encoded", i, in)
		}
		tup := tupleFromInfo(in, id)
		want, err := json.Marshal(apiv1.Frame{Type: apiv1.FrameTuple, Tuple: &tup})
		if err != nil {
			t.Fatal(err)
		}
		wantSSE := "id: " + strconv.FormatUint(id, 10) + "\ndata: " + string(want) + "\n\n"
		if sse := appendSSE(nil, f); string(sse) != wantSSE {
			t.Fatalf("tuple %d: sse event\n%q\nwant\n%q", i, sse, wantSSE)
		}
		op, got := wsClientRead(t, bufio.NewReader(bytes.NewReader(appendWS(nil, f))))
		if op != wsOpText || !bytes.Equal(got, want) {
			t.Fatalf("tuple %d: ws opcode %#x payload\n%q\nwant\n%q", i, op, got, want)
		}
		if api := f.api(); api.Tuple.StreamID != id || api.Tuple.Metric != string(metric) {
			t.Fatalf("tuple %d: api form %+v", i, api.Tuple)
		}
	}
	// What JSON cannot carry is skipped, not sent half-encoded.
	nan, _ := telemetry.NewFact("m.nan", 1, math.NaN()).MarshalBinary()
	if f := h.encode(stream.Entry{ID: 1, Payload: nan}, "m.nan"); f != nil {
		t.Fatalf("NaN encoded as %q", f.body)
	}
	if f := h.encode(stream.Entry{ID: 1, Payload: []byte("not a tuple")}, "m"); f != nil {
		t.Fatalf("foreign payload encoded as %q", f.body)
	}
	// Terminal frames carry no id line.
	f := newFrame(apiv1.Frame{Type: apiv1.FrameGoaway, Error: apiv1.Errorf(apiv1.CodeDraining, true, "bye")})
	if sse := appendSSE(nil, f); !bytes.HasPrefix(sse, []byte("data: {")) {
		t.Fatalf("terminal sse event %q", sse)
	}
}

// TestEncodeAllocs: a tuple frame costs two allocations, the frame and its
// exact-size body: no copy of the topic's metric name, no *apiv1.Tuple and
// no encoder buffer.
func TestEncodeAllocs(t *testing.T) {
	h := newHub(nil, 4, nil)
	p, err := telemetry.Info{Metric: "sum00", Timestamp: 1, Value: 8123.25, Kind: telemetry.KindInsight}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	e := stream.Entry{ID: 7, Payload: p}
	if n := testing.AllocsPerRun(100, func() { h.encode(e, "sum00") }); n != 2 {
		t.Errorf("encode allocates %v times per frame, want 2", n)
	}
	// Below 256 B the allocator's size classes are 16 B apart.
	if f := h.encode(e, "sum00"); cap(f.body)-len(f.body) >= 16 {
		t.Errorf("a %d B body keeps %d B: not an exact-size copy", len(f.body), cap(f.body))
	}
}

// TestEncodeOncePerTopic: a tuple is decoded and encoded once however many
// subscribers its topic has, and delivered once to each.
func TestEncodeOncePerTopic(t *testing.T) {
	const subs, tuples = 5, 40
	reg := obs.NewRegistry()
	f := newFixture(t, Config{QueueSize: 64, Obs: reg})
	var attached []*Subscriber
	for i := 0; i < subs; i++ {
		sub, err := f.gw.Attach(context.Background(), "p", "m.cap", 0)
		if err != nil {
			t.Fatal(err)
		}
		attached = append(attached, sub)
	}
	f.publish(t, "m.cap", tuples)
	for _, sub := range attached {
		wantRun(t, drainIDs(t, sub, tuples), 1)
	}
	snap := reg.Snapshot()
	if n := snap.Counter("gateway_frames_encoded_total"); n != tuples {
		t.Errorf("gateway_frames_encoded_total = %d, want %d", n, tuples)
	}
	if n := snap.Counter("gateway_frames_sent_total"); n != tuples*subs {
		t.Errorf("gateway_frames_sent_total = %d, want %d", n, tuples*subs)
	}
	if n := snap.Gauge("gateway_broadcast_topics"); n != 1 {
		t.Errorf("gateway_broadcast_topics = %v, want 1", n)
	}
	for _, sub := range attached {
		sub.Close()
	}
	snap = reg.Snapshot()
	if topics, live := snap.Gauge("gateway_broadcast_topics"), snap.Gauge("gateway_subscribers"); topics != 0 || live != 0 {
		t.Errorf("after the last subscriber left: %v topics, %v subscribers", topics, live)
	}
}

// TestAttachFarBehindCatchesUp: attaching further behind the tail than the
// ring is long is not being slow. The subscriber pulls what the bus retains
// at its own pace, joins the ring, and goes on live. (It used to be evicted
// before it read its first frame.)
func TestAttachFarBehindCatchesUp(t *testing.T) {
	const queue = 8
	f := newFixture(t, Config{QueueSize: queue})
	f.publish(t, "m.cap", 4*queue)

	sub, err := f.gw.Attach(context.Background(), "late", "m.cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.hist == nil {
		t.Fatal("a subscriber behind the ring should start on a private cursor")
	}
	wantRun(t, drainIDs(t, sub, 4*queue), 1)
	if sub.hist != nil {
		t.Fatal("still on the private cursor after reading all of history")
	}
	f.publish(t, "m.cap", queue)
	wantRun(t, drainIDs(t, sub, queue), 4*queue+1)

	// A second client on the now-running broadcaster: within the ring it
	// joins directly, behind it it catches up first; both go on live.
	near, err := f.gw.Attach(context.Background(), "near", "m.cap", 5*queue-3)
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	far, err := f.gw.Attach(context.Background(), "far", "m.cap", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	if near.hist != nil || far.hist == nil {
		t.Fatalf("private cursors: near %v far %v, want only far", near.hist != nil, far.hist != nil)
	}
	wantRun(t, drainIDs(t, near, 3), 5*queue-2)
	wantRun(t, drainIDs(t, far, 5*queue-2), 3)
	f.publish(t, "m.cap", queue)
	for _, s := range []*Subscriber{sub, near, far} {
		wantRun(t, drainIDs(t, s, queue), 5*queue+1)
		if s.Evicted() {
			t.Fatalf("%s evicted", s.Principal())
		}
	}
}

// TestJoinPosition: a resuming subscriber joins the ring at its first due
// frame, so frames it has already seen do not count towards lapping it.
func TestJoinPosition(t *testing.T) {
	tp := &topic{ring: make([]*frame, 4), subs: map[*Subscriber]struct{}{}}
	for id := uint64(1); id <= 6; id++ {
		tp.publish(&frame{id: id})
	}
	// The ring holds IDs 3..6 as frames number 2..5.
	for _, c := range []struct {
		after uint64
		ok    bool
		pos   uint64
	}{{1, false, 0}, {2, true, 2}, {4, true, 4}, {6, true, 6}, {9, true, 6}} {
		s := &Subscriber{}
		if ok := tp.join(s, c.after); ok != c.ok || (ok && s.pos != c.pos) {
			t.Errorf("join after %d: ok=%v pos=%d, want ok=%v pos=%d", c.after, ok, s.pos, c.ok, c.pos)
		}
	}
}

// TestFramesAdapter drains through the Frames channel beside Final, the way
// the in-process load drivers do.
func TestFramesAdapter(t *testing.T) {
	f := newFixture(t, Config{QueueSize: 16})
	f.publish(t, "m.cap", 10)
	sub, err := f.gw.Attach(context.Background(), "p", "m.cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 10; want++ {
		select {
		case fr := <-sub.Frames():
			if fr.Tuple.StreamID != want {
				t.Fatalf("stream ID %d, want %d", fr.Tuple.StreamID, want)
			}
		case fr := <-sub.Final():
			t.Fatalf("terminal frame %+v before frame %d", fr, want)
		}
	}
	sub.Close()
	if fr := <-sub.Final(); fr.Type != apiv1.FrameGoaway {
		t.Fatalf("terminal frame %+v", fr)
	}
}

// countingConn counts Write calls on an accepted connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// TestWebSocketOneWritePerFrame: every server frame — tuple, pong, close
// echo — leaves in exactly one Write, and control replies interleave with
// the tuple stream whole, never inside another frame.
func TestWebSocketOneWritePerFrame(t *testing.T) {
	const tuples = 200
	b := stream.NewBroker(0)
	gw := New(NewBusBackend(b), Config{QueueSize: 2 * tuples})
	var writes atomic.Int64
	srv := httptest.NewUnstartedServer(gw.mux)
	srv.Listener = countingListener{srv.Listener, &writes}
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		gw.Close()
		b.Close()
	})
	f := &fixture{broker: b, gw: gw}

	conn, br := wsDial(t, srv.Listener.Addr().String(), apiv1.SubscribePath("m.cap"))
	handshake := writes.Load()

	// Pings go out while tuples stream the other way.
	pinged := make(chan struct{})
	go func() {
		defer close(pinged)
		for i := 0; i < 10; i++ {
			wsClientWrite(t, conn, wsOpPing, []byte("hb"+strconv.Itoa(i)))
		}
	}()
	f.publish(t, "m.cap", tuples)
	var next uint64 = 1
	pongs := 0
	for next <= tuples || pongs < 10 {
		op, payload := wsClientRead(t, br)
		switch op {
		case wsOpText:
			var fr apiv1.Frame
			if err := json.Unmarshal(payload, &fr); err != nil {
				t.Fatalf("torn frame %q: %v", payload, err)
			}
			if fr.Tuple.StreamID != next {
				t.Fatalf("stream ID %d, want %d", fr.Tuple.StreamID, next)
			}
			next++
		case wsOpPong:
			if want := "hb" + strconv.Itoa(pongs); string(payload) != want {
				t.Fatalf("pong %q, want %q", payload, want)
			}
			pongs++
		default:
			t.Fatalf("opcode %#x", op)
		}
	}
	<-pinged
	if got := writes.Load() - handshake; got != tuples+10 {
		t.Fatalf("%d writes for %d tuple frames and 10 pongs", got, tuples)
	}

	// Close handshake: the server echoes the status, again in one write.
	wsClientWrite(t, conn, wsOpClose, []byte{0x03, 0xE8})
	if op, payload := wsClientRead(t, br); op != wsOpClose || !bytes.Equal(payload, []byte{0x03, 0xE8}) {
		t.Fatalf("close echo: opcode %#x payload %x", op, payload)
	}
}

// recordingBackend remembers the context of every upstream cursor the
// gateway opens.
type recordingBackend struct {
	*BusBackend
	mu   sync.Mutex
	ctxs []context.Context
}

func (r *recordingBackend) Follow(ctx context.Context, metric string, afterID uint64) (stream.Cursor, error) {
	r.mu.Lock()
	r.ctxs = append(r.ctxs, ctx)
	r.mu.Unlock()
	return r.BusBackend.Follow(ctx, metric, afterID)
}

func (r *recordingBackend) live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ctx := range r.ctxs {
		if ctx.Err() == nil {
			n++
		}
	}
	return n
}

// TestBroadcasterChurn attaches, detaches, evicts and drains on one topic
// while it is being published to. Whoever stays and reads sees an unbroken
// run of stream IDs — or, when the spinning publisher laps the broker's
// retention under a cursor, a retryable unavailable end; when the last
// subscriber has left, the upstream cursor is cancelled and no goroutine is
// left behind.
func TestBroadcasterChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	b := stream.NewBroker(0)
	backend := &recordingBackend{BusBackend: NewBusBackend(b)}
	gw := New(backend, Config{QueueSize: 32, Obs: reg})
	f := &fixture{broker: b, gw: gw}

	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.publish(t, "m.cap", 8)
				runtime.Gosched()
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				// From the tail: on the ring, where not reading is being
				// slow. Every fourth reader starts from the beginning of
				// retention instead and leaves on its private cursor.
				after := backend.Tail(ctx, "m.cap")
				if (w+round)%12 == 0 {
					after = 0
				}
				sub, err := gw.Attach(ctx, "churn", "m.cap", after)
				if err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				switch (w + round) % 3 {
				case 0: // reads a while, then leaves
					var last uint64
					for i := 0; i < 50; i++ {
						fr, more := sub.Next(ctx)
						if !more {
							break // evicted after all, or overtaken: the publisher outran it
						}
						if last != 0 && fr.Tuple.StreamID != last+1 {
							t.Errorf("stream ID %d after %d", fr.Tuple.StreamID, last)
						}
						last = fr.Tuple.StreamID
					}
					sub.Close()
				case 1: // never reads: evicted
					if sub.hist != nil {
						// The tail ran a ring's length ahead between Tail
						// and Attach; a reader of history holds no slack to
						// be evicted for.
						sub.Close()
						break
					}
					if fr := <-sub.Final(); fr.Type != apiv1.FrameError ||
						!sub.Evicted() && fr.Error.Code != apiv1.CodeUnavailable {
						t.Errorf("idle subscriber ended with %+v", fr)
					}
				case 2: // leaves at once
					sub.Close()
				}
			}
		}(w)
	}
	wg.Wait()

	// Everyone has left, publishing goes on: nothing is listening upstream.
	if n := reg.Gauge("gateway_subscribers").Value(); n != 0 {
		t.Fatalf("%v subscribers left", n)
	}
	if n := backend.live(); n != 0 {
		t.Fatalf("%d upstream cursors still open with no subscriber", n)
	}
	if n := reg.Snapshot().Gauge("gateway_broadcast_topics"); n != 0 {
		t.Fatalf("gateway_broadcast_topics = %v with no subscriber", n)
	}

	// Drain under load: the stayers get a goaway, and again nothing stays.
	var stayers []*Subscriber
	for i := 0; i < 4; i++ {
		sub, err := gw.Attach(context.Background(), "stay", "m.cap", 0)
		if err != nil {
			t.Fatal(err)
		}
		stayers = append(stayers, sub)
	}
	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, sub := range stayers {
		if fr := <-sub.Final(); fr.Type != apiv1.FrameGoaway && fr.Type != apiv1.FrameError {
			t.Fatalf("terminal frame %+v", fr)
		}
	}
	close(stop)
	pub.Wait()
	if n := backend.live(); n != 0 {
		t.Fatalf("%d upstream cursors still open after drain", n)
	}
	b.Close()
	// A goroutine's exit trails the signal that announces it, and the
	// runtime offers no wait for it: yield until the count is back.
	for i := 0; runtime.NumGoroutine() > base && i < 1e6; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines, %d before the test:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// heldBackend hands out upstream cursors whose Next waits until release is
// closed, so a test can let the publisher run ahead of a broadcaster.
type heldBackend struct {
	*BusBackend
	release chan struct{}
}

func (h *heldBackend) Follow(ctx context.Context, metric string, afterID uint64) (stream.Cursor, error) {
	cur, err := h.BusBackend.Follow(ctx, metric, afterID)
	return heldCursor{cur, h.release}, err
}

type heldCursor struct {
	stream.Cursor
	release <-chan struct{}
}

func (c heldCursor) Next() ([]stream.Entry, error) {
	<-c.release
	return c.Cursor.Next()
}

// wantOvertaken reads sub's next frame and requires the retryable
// unavailable end that retention overtaking a cursor gets, not a tuple.
func wantOvertaken(t *testing.T, sub *Subscriber) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fr, more := sub.Next(ctx)
	if more || fr.Type != apiv1.FrameError || fr.Error.Code != apiv1.CodeUnavailable || !fr.Error.Retryable {
		t.Fatalf("after retention overtook the cursor: %+v (tuple %+v) more=%v, want a retryable unavailable end", fr, fr.Tuple, more)
	}
	if sub.Evicted() {
		t.Fatal("an overtaken subscriber is not a slow one")
	}
}

// TestRetentionOvertakesBroadcaster: a publisher that laps broker retention
// before the broadcaster reads its first run leaves the broadcaster's cursor
// skipped to the oldest retained entry. That gap must not reach the ring: the
// topic is dropped and every subscriber ends with a retryable unavailable
// frame.
func TestRetentionOvertakesBroadcaster(t *testing.T) {
	b := stream.NewBroker(64)
	defer b.Close()
	backend := &heldBackend{NewBusBackend(b), make(chan struct{})}
	gw := New(backend, Config{QueueSize: 128}) // room for all that is retained: no eviction
	defer gw.Close()
	f := &fixture{broker: b, gw: gw}

	var subs []*Subscriber
	for i := 0; i < 2; i++ {
		sub, err := gw.Attach(context.Background(), "p", "m.cap", 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	f.publish(t, "m.cap", 200) // IDs 1..136 fall out of retention unread
	close(backend.release)
	for _, sub := range subs {
		wantOvertaken(t, sub)
	}
}

// TestRingLongerThanRetention: when the ring reaches further back than the
// broker retains, a new broadcaster's first run starts at the oldest retained
// entry. That is history aged out before anyone asked for it, not a gap in
// the live stream: a resume point behind it starts at the oldest retained
// entry, and the stream goes on live.
func TestRingLongerThanRetention(t *testing.T) {
	b := stream.NewBroker(64)
	gw := New(NewBusBackend(b), Config{QueueSize: 128})
	t.Cleanup(func() {
		gw.Close()
		b.Close()
	})
	f := &fixture{broker: b, gw: gw}
	f.publish(t, "m.cap", 200) // retained: 137..200; the ring would start at 72

	sub, err := gw.Attach(context.Background(), "p", "m.cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	wantRun(t, drainIDs(t, sub, 64), 137)
	f.publish(t, "m.cap", 10)
	wantRun(t, drainIDs(t, sub, 10), 201)
}

// scriptedBackend serves the broker's cursors, except a subscriber's private
// history cursor — the one opened at 0 — which replays runs.
type scriptedBackend struct {
	*BusBackend
	runs [][]stream.Entry
}

func (s *scriptedBackend) Follow(ctx context.Context, metric string, afterID uint64) (stream.Cursor, error) {
	if afterID != 0 {
		return s.BusBackend.Follow(ctx, metric, afterID)
	}
	return &scriptedCursor{runs: s.runs}, nil
}

type scriptedCursor struct{ runs [][]stream.Entry }

func (c *scriptedCursor) Next() ([]stream.Entry, error) {
	if len(c.runs) == 0 {
		return nil, stream.ErrClosed
	}
	run := c.runs[0]
	c.runs = c.runs[1:]
	return run, nil
}

// TestRetentionOvertakesHistory: a subscriber resuming behind retention
// starts wherever its private cursor's first run does — the oldest retained
// entry — but once it has read one, a run that skips ends it with a
// retryable unavailable frame.
func TestRetentionOvertakesHistory(t *testing.T) {
	var runs [][]stream.Entry
	for _, ids := range [][]uint64{{5, 6, 7}, {8, 9}, {20, 21}} {
		var run []stream.Entry
		for _, id := range ids {
			p, err := telemetry.NewFact("m.cap", int64(id), float64(id)).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			run = append(run, stream.Entry{ID: id, Payload: p})
		}
		runs = append(runs, run)
	}
	b := stream.NewBroker(0)
	gw := New(&scriptedBackend{NewBusBackend(b), runs}, Config{QueueSize: 4})
	t.Cleanup(func() {
		gw.Close()
		b.Close()
	})
	f := &fixture{broker: b, gw: gw}
	f.publish(t, "m.cap", 40) // the ring starts at 36, far ahead of the script

	sub, err := gw.Attach(context.Background(), "late", "m.cap", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.hist == nil {
		t.Fatal("a subscriber behind the ring should start on a private cursor")
	}
	wantRun(t, drainIDs(t, sub, 5), 5)
	wantOvertaken(t, sub)
}

// BenchmarkRingFootprint reports what a topic's ring holds: B/slot over a
// full ring of frames shaped like edge-fanout's insights (a Sum over eight
// ~1 000-valued facts, wall-clock timestamps), the slot pointer included,
// and B/subscriber for a subscriber attached to it, the hub's side only (a
// transport adds its goroutine and its write buffer).
func BenchmarkRingFootprint(b *testing.B) {
	const queue, subs = 1024, 256
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rng := rand.New(rand.NewSource(1))
	var slots, perSub uint64
	for i := 0; i < b.N; i++ {
		h := newHub(nil, queue, nil)
		attached := make([]*Subscriber, 0, subs)
		base := liveHeap()
		tp := &topic{hub: h, metric: "sum00", cancel: func() {}, ring: make([]*frame, queue), subs: map[*Subscriber]struct{}{}}
		now := time.Now().UnixNano()
		for id := uint64(1); id <= queue; id++ {
			in := telemetry.Info{Metric: "sum00", Timestamp: now + int64(id)*int64(20*time.Millisecond),
				Value: 8000 + 1000*rng.Float64(), Kind: telemetry.KindInsight, Source: telemetry.Measured}
			p, err := in.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			tp.publish(h.encode(stream.Entry{ID: id, Payload: p}, tp.metric))
		}
		mid := liveHeap()
		slots += mid - base
		h.topics[tp.metric] = tp
		for j := 0; j < subs; j++ {
			s, err := h.attach(context.Background(), "p", tp.metric, queue)
			if err != nil {
				b.Fatal(err)
			}
			attached = append(attached, s)
		}
		perSub += liveHeap() - mid
		for _, s := range attached {
			s.Close()
		}
		runtime.KeepAlive(tp)
	}
	b.ReportMetric(float64(slots)/float64(b.N)/queue, "B/slot")
	b.ReportMetric(float64(perSub)/float64(b.N)/subs, "B/subscriber")
}
