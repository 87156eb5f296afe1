package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestBrokerPublishAllocs pins the one append path: payloads are copied onto
// the topic's tail chunk, so a publish allocates only when a chunk fills, and
// waking a parked consumer makes nothing.
func TestBrokerPublishAllocs(t *testing.T) {
	b := NewBroker(1 << 10)
	defer b.Close()
	ctx := context.Background()
	payload := make([]byte, 16)
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = payload
	}
	if n := testing.AllocsPerRun(1000, func() { b.Publish(ctx, "t", payload) }); n >= 0.1 {
		t.Errorf("Publish allocates %v times per call, want < 0.1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { b.PublishBatch(ctx, "t", batch) }); n >= 0.1 {
		t.Errorf("PublishBatch of 64 allocates %v times per call, want < 0.1", n)
	}

	// With a consumer parked the publish wakes it.
	_, tail, _ := b.TopicTail(ctx, "t")
	got := make(chan []Entry, 1)
	go func() {
		es, _ := b.ConsumeBatch(ctx, "t", tail, 0)
		got <- es
	}()
	waitParked(t, b, "t")
	b.Publish(ctx, "t", []byte("wake"))
	select {
	case es := <-got:
		if len(es) != 1 || es[0].ID != tail+1 || string(es[0].Payload) != "wake" {
			t.Fatalf("parked consumer woke with %v, want entry %d", es, tail+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer never woken")
	}
}

// waitParked returns once a reader is parked on topic, yielding the processor
// in between, and fails t if none parks within five seconds.
func waitParked(t *testing.T, b *Broker, topic string) {
	t.Helper()
	tp, err := b.topicFor(topic, true)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		tp.mu.Lock()
		parked := tp.parked > 0
		tp.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reader parked on %s", topic)
		}
	}
}

func TestBrokerPublishBatchEmptyAndInvalid(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	ctx := context.Background()

	// Empty batch is an accepted no-op.
	if id, err := b.PublishBatch(ctx, "t", nil); err != nil || id != 0 {
		t.Fatalf("empty batch = (%d, %v) want (0, nil)", id, err)
	}
	// One empty payload rejects the whole batch before anything lands.
	_, err := b.PublishBatch(ctx, "t", [][]byte{[]byte("ok"), nil})
	if !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("err=%v want ErrEmptyPayload", err)
	}
	if _, n, _ := b.TopicTail(ctx, "t"); n != 0 {
		t.Fatalf("published=%d after rejected batch, want 0 (atomic reject)", n)
	}
	b.Close()
	if _, err := b.PublishBatch(ctx, "t", [][]byte{[]byte("x")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err=%v want ErrClosed", err)
	}
}

func TestBrokerPublishBatchIsolation(t *testing.T) {
	// Entries are views of one shared chunk; appending to one payload must
	// never bleed into its neighbor.
	b := NewBroker(0)
	defer b.Close()
	ctx := context.Background()
	if _, err := b.PublishBatch(ctx, "t", [][]byte{[]byte("aaaa"), []byte("bbbb")}); err != nil {
		t.Fatal(err)
	}
	es, err := b.Range(ctx, "t", 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(es[0].Payload, 'X') // would corrupt entry 2 without a cap-capped slice
	es2, err := b.Range(ctx, "t", 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(es2[0].Payload, []byte("bbbb")) {
		t.Fatalf("neighbor payload corrupted: %q", es2[0].Payload)
	}
}

func TestBrokerPublishBatchEviction(t *testing.T) {
	// A batch larger than retention keeps only the newest entries.
	b := NewBroker(4)
	defer b.Close()
	ctx := context.Background()
	var batch [][]byte
	for i := 0; i < 10; i++ {
		batch = append(batch, []byte{byte(i)})
	}
	if _, err := b.PublishBatch(ctx, "t", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Range(ctx, "t", 1, 10, 0); !errors.Is(err, ErrEvicted) {
		t.Fatalf("err=%v want ErrEvicted for evicted prefix", err)
	}
	es, err := b.Range(ctx, "t", 7, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 4 || es[0].ID != 7 || es[3].ID != 10 {
		t.Fatalf("retained window wrong: %v", es)
	}
}

func TestBrokerConsumeBatch(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	ctx := context.Background()
	for i := 1; i <= 10; i++ {
		b.Publish(ctx, "t", []byte{byte(i)})
	}
	// One call drains a burst, capped at max.
	es, err := b.ConsumeBatch(ctx, "t", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 4 || es[0].ID != 1 || es[3].ID != 4 {
		t.Fatalf("batch = %v want IDs 1..4", es)
	}
	// max <= 0 means everything retained after afterID.
	es, err = b.ConsumeBatch(ctx, "t", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 6 || es[0].ID != 5 {
		t.Fatalf("drain = %d entries first ID %d, want 6 from 5", len(es), es[0].ID)
	}
	// Blocks until the next publish, then wakes with the new entry.
	done := make(chan []Entry, 1)
	go func() {
		es, err := b.ConsumeBatch(ctx, "t", 10, 8)
		if err != nil {
			done <- nil
			return
		}
		done <- es
	}()
	waitParked(t, b, "t")
	b.Publish(ctx, "t", []byte("new"))
	select {
	case es := <-done:
		if len(es) != 1 || es[0].ID != 11 {
			t.Fatalf("woke with %v want single ID 11", es)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ConsumeBatch never woke")
	}
	// Context cancellation unblocks a waiting consumer.
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, err := b.ConsumeBatch(cctx, "t", 11, 8)
		errc <- err
	}()
	waitParked(t, b, "t")
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock ConsumeBatch")
	}
}

func TestBrokerShardedConcurrentPublish(t *testing.T) {
	// 32 goroutines publish concurrently, sharded over 1, 4 or 16 topics:
	// at shards=1 all of them race to create and append to one topic. Every
	// topic must end with its own dense 1..N ID sequence and Topics() must
	// see each of them once, sorted.
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := NewBroker(0)
			defer b.Close()
			ctx := context.Background()
			const publishers, perPublisher = 32, 50
			var wg sync.WaitGroup
			for i := 0; i < publishers; i++ {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					for j := 0; j < perPublisher; j += 5 {
						batch := [][]byte{{1}, {2}, {3}, {4}, {5}}
						if _, err := b.PublishBatch(ctx, name, batch); err != nil {
							t.Errorf("publish %s: %v", name, err)
							return
						}
					}
				}(fmt.Sprintf("topic%02d", i%shards))
			}
			wg.Wait()
			names := b.Topics()
			if len(names) != shards {
				t.Fatalf("Topics len=%d want %d", len(names), shards)
			}
			for i := 1; i < len(names); i++ {
				if names[i-1] >= names[i] {
					t.Fatalf("Topics not sorted: %q >= %q", names[i-1], names[i])
				}
			}
			want := publishers / shards * perPublisher
			for _, name := range names {
				_, n, err := b.TopicTail(ctx, name)
				if err != nil || n != uint64(want) {
					t.Fatalf("%s published=%d (%v) want %d", name, n, err, want)
				}
				entries, err := b.Range(ctx, name, 1, n, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range entries {
					if e.ID != uint64(i+1) {
						t.Fatalf("%s entry %d has ID %d: not dense", name, i, e.ID)
					}
				}
			}
		})
	}
}

// TestTopicCreatedOnce races the creation of the same new topics — by
// publishers and by Follow — against Topics() and then Close. Each name must
// get one topic: its acked IDs are dense from 1, its followers read them
// without a gap, and the topics gauge counts it once. Close must wake every
// follower, parked or not.
func TestTopicCreatedOnce(t *testing.T) {
	const names, publishers, followers = 16, 4, 2
	b := NewBroker(0)
	reg := obs.NewRegistry()
	b.Instrument(reg)
	ctx := context.Background()
	name := func(i int) string { return fmt.Sprintf("new%02d", i) }

	var (
		start      = make(chan struct{})
		mu         sync.Mutex
		acked      = map[string][]uint64{}
		firstPass  sync.WaitGroup // each publisher's first pass over every name
		pubs, subs sync.WaitGroup
	)
	firstPass.Add(publishers)
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			<-start
			for round := 0; ; round++ {
				for i := 0; i < names; i++ {
					n := name(i)
					id, err := b.Publish(ctx, n, []byte{byte(p)})
					if errors.Is(err, ErrClosed) && round > 0 {
						return
					}
					if err != nil {
						t.Errorf("publish %s: %v", n, err)
						return
					}
					mu.Lock()
					acked[n] = append(acked[n], id)
					mu.Unlock()
				}
				if round == 0 {
					firstPass.Done()
				}
			}
		}(p)
	}
	for f := 0; f < followers; f++ {
		for i := 0; i < names; i++ {
			subs.Add(1)
			go func(n string) {
				defer subs.Done()
				<-start
				cur, err := b.Follow(ctx, n, 0)
				if err != nil {
					if !errors.Is(err, ErrClosed) { // a Follow after Close is refused
						t.Errorf("follow %s: %v", n, err)
					}
					return
				}
				for last := uint64(0); ; {
					run, err := cur.Next()
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("follow %s ended with %v, want ErrClosed", n, err)
						}
						return
					}
					for _, e := range run {
						if e.ID != last+1 {
							t.Errorf("follow %s read ID %d after %d", n, e.ID, last)
							return
						}
						last = e.ID
					}
				}
			}(name(i))
		}
	}
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		<-start
		for k := 0; k < 200; k++ {
			got := b.Topics()
			if len(got) > names || !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
				t.Errorf("Topics() = %q: want at most %d distinct sorted names", got, names)
				return
			}
		}
	}()

	close(start)
	<-listed
	firstPass.Wait()
	b.Close()
	pubs.Wait()
	woken := make(chan struct{})
	go func() { subs.Wait(); close(woken) }()
	select {
	case <-woken:
	case <-time.After(10 * time.Second):
		t.Fatal("a follower stayed parked after Close")
	}

	if got := len(b.Topics()); got != names {
		t.Fatalf("Topics() lists %d names, want %d", got, names)
	}
	if g := reg.Gauge("stream_broker_topics").Value(); g != names {
		t.Fatalf("stream_broker_topics = %v, want %d", g, names)
	}
	for n, ids := range acked {
		slices.Sort(ids)
		for j, id := range ids {
			if id != uint64(j+1) {
				t.Fatalf("%s: acked IDs %v are not dense from 1", n, ids)
			}
		}
	}
}

func TestClientPublishBatchTCP(t *testing.T) {
	b, s := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("entry-%02d", i))
	}
	first, err := c.PublishBatch(ctx, "t", payloads)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first=%d want 1", first)
	}
	if _, n, _ := b.TopicTail(ctx, "t"); n != 64 {
		t.Fatalf("broker saw %d entries want 64", n)
	}
	es, err := c.Range(ctx, "t", 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 64 {
		t.Fatalf("Range len=%d want 64", len(es))
	}
	for i, e := range es {
		if e.ID != uint64(i+1) || string(e.Payload) != string(payloads[i]) {
			t.Fatalf("entry %d = (%d, %q)", i, e.ID, e.Payload)
		}
	}
	// Empty batch short-circuits client-side.
	if id, err := c.PublishBatch(ctx, "t", nil); err != nil || id != 0 {
		t.Fatalf("empty batch = (%d, %v) want (0, nil)", id, err)
	}
	// Broker-side validation travels back as the sentinel error.
	if _, err := c.PublishBatch(ctx, "t", [][]byte{nil}); !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("err=%v want ErrEmptyPayload", err)
	}
}

// TestClientCancelInterruptsPendingRead: cancelling a call whose answer is
// withheld returns context.Canceled promptly, and the client's next call is
// answered.
func TestClientCancelInterruptsPendingRead(t *testing.T) {
	h := startHoldServer(t)
	c, err := Dial(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- c.Ping(ctx) }()
	h.next(t)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not interrupt the pending read")
	}
	// The provoked deadline must not poison the client for later calls.
	go func() { errc <- c.Ping(context.Background()) }()
	close(h.next(t).answer)
	if err := <-errc; err != nil {
		t.Fatalf("Ping after cancel: %v", err)
	}
}

func TestCoalescerGroupCommit(t *testing.T) {
	// With maxBatch=4 and a long maxDelay, four async publishes must leave
	// as exactly one PublishBatch (one histogram observation of size 4) and
	// resolve contiguous IDs in submission order.
	_, s := startServer(t)
	r := obs.NewRegistry()
	c, err := Dial(s.Addr(), WithObs(r), WithCoalesce(4, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var chans []<-chan PublishResult
	for i := 0; i < 4; i++ {
		chans = append(chans, c.PublishAsync(ctx, "t", []byte{byte(i + 1)}))
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("async %d: %v", i, res.Err)
			}
			if res.ID != uint64(i+1) {
				t.Fatalf("async %d resolved ID %d want %d", i, res.ID, i+1)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("async %d never resolved (flush at maxBatch broken)", i)
		}
	}
	snap := r.Snapshot()
	h, ok := snap.Histograms["stream_client_batch_size"]
	if !ok {
		t.Fatal("stream_client_batch_size not registered")
	}
	if h.Count != 1 || h.Sum != 4 {
		t.Fatalf("batch histogram count=%d sum=%g want one flush of 4", h.Count, h.Sum)
	}
}

func TestCoalescerFlushesOnDelay(t *testing.T) {
	// Fewer tuples than maxBatch still flush once maxDelay elapses.
	_, s := startServer(t)
	c, err := Dial(s.Addr(), WithCoalesce(64, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ch := c.PublishAsync(context.Background(), "t", []byte("solo"))
	select {
	case res := <-ch:
		if res.Err != nil || res.ID != 1 {
			t.Fatalf("res=%+v want ID 1", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delay-triggered flush never happened")
	}
}

func TestCoalescerMixedTopics(t *testing.T) {
	// Interleaved topics split into per-topic runs but still all resolve.
	b, s := startServer(t)
	c, err := Dial(s.Addr(), WithCoalesce(8, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const n = 40
	chans := make([]<-chan PublishResult, n)
	for i := 0; i < n; i++ {
		topic := "even"
		if i%2 == 1 {
			topic = "odd"
		}
		chans[i] = c.PublishAsync(ctx, topic, []byte{byte(i)})
	}
	seen := map[string]map[uint64]bool{"even": {}, "odd": {}}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("async %d: %v", i, res.Err)
		}
		topic := "even"
		if i%2 == 1 {
			topic = "odd"
		}
		if seen[topic][res.ID] {
			t.Fatalf("duplicate ID %d on %s", res.ID, topic)
		}
		seen[topic][res.ID] = true
	}
	for _, topic := range []string{"even", "odd"} {
		if _, n, _ := b.TopicTail(ctx, topic); n != 20 {
			t.Fatalf("%s published=%d want 20", topic, n)
		}
	}
}

func TestCoalescerEmptyPayloadAndClose(t *testing.T) {
	_, s := startServer(t)
	c, err := Dial(s.Addr(), WithCoalesce(64, time.Hour)) // never auto-flush
	if err != nil {
		t.Fatal(err)
	}
	// Empty payloads are rejected synchronously.
	res := <-c.PublishAsync(context.Background(), "t", nil)
	if !errors.Is(res.Err, ErrEmptyPayload) {
		t.Fatalf("err=%v want ErrEmptyPayload", res.Err)
	}
	// Close drains the queue: parked tuples resolve (with ErrClientClosed)
	// instead of hanging their waiters forever.
	ch := c.PublishAsync(context.Background(), "t", []byte("parked"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch:
		if res.Err == nil {
			t.Fatal("parked tuple resolved nil error after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left an async publish hanging")
	}
	// After Close, PublishAsync fails fast.
	res = <-c.PublishAsync(context.Background(), "t", []byte("late"))
	if !errors.Is(res.Err, ErrClientClosed) {
		t.Fatalf("err=%v want ErrClientClosed", res.Err)
	}
}

// TestSubscriptionCloseResumeRace is the regression test for the dangling-conn
// race: Close racing resume() could leave the freshly-dialed connection
// uninstalled and unclosed, leaking it and (worse) leaving the reader
// goroutine alive. Chaos resets force constant resumes while Close fires at
// staggered points; every Close must return promptly.
func TestSubscriptionCloseResumeRace(t *testing.T) {
	b, s := startServer(t)
	ctx := context.Background()
	for i := 1; i <= 10; i++ {
		b.Publish(ctx, "m", []byte{byte(i)})
	}
	for i := 0; i < 30; i++ {
		chaos := NewChaos(ChaosConfig{Seed: int64(i), ResetProb: 0.2, DelayProb: 0.3, Delay: time.Millisecond})
		sub, err := followT(t, s.Addr(), "m", 0, append(fastOpts(), withChaos(chaos))...)
		if err != nil {
			continue // initial dial ate a reset; the race needs a live sub
		}
		go func() { // keep the stream and the resume loop busy
			for range sub.ch {
			}
		}()
		// Stagger Close across the dial/adopt/read phases of resume.
		for range i % 7 {
			runtime.Gosched()
		}
		done := make(chan struct{})
		go func() {
			sub.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Close hung against resume", i)
		}
	}
}

// TestSubscriptionCloseDuringOutage closes a subscription while the server is
// down and resume is mid-backoff; Close must still return promptly.
func TestSubscriptionCloseDuringOutage(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.Publish(context.Background(), "m", []byte("x"))
	clock := sim.NewVirtual(time.Now()) // socket deadlines anchor to its Now
	sub, err := followT(t, s.Addr(), "m", 0, func(o *options) { o.clock = clock })
	if err != nil {
		t.Fatal(err)
	}
	<-sub.ch
	s.Close()             // force resume into dial-retry backoff
	<-clock.BlockUntil(1) // resume is parked in its backoff wait
	done := make(chan struct{})
	go func() {
		sub.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while resume was backing off")
	}
}
