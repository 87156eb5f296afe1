package stream

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// returns fails the test unless fn comes back: a missed wake is a call that
// never returns, and this names it instead of leaving it to the test binary's
// timeout.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: never returned (a wake was missed)", what)
	}
}

// TestCursorNeverMissesAWake races each of the three things that wake a
// parked cursor — an append, the end of its context, the broker's Close —
// against the park itself: every published ID is seen exactly once, in order,
// or the call returns with the error that ended it.
func TestCursorNeverMissesAWake(t *testing.T) {
	t.Run("publish", func(t *testing.T) {
		// Lockstep: each entry is published as the reader, having taken the
		// one before, is on its way to park, and nothing follows to cover for
		// a wake that went missing.
		const rounds = 20000
		b := NewBroker(0)
		defer b.Close()
		ctx := context.Background()
		cur, err := b.Follow(ctx, "t", 0)
		if err != nil {
			t.Fatal(err)
		}
		took := make(chan uint64)
		go func() {
			defer close(took)
			for {
				run, err := cur.Next()
				if err != nil {
					return // the deferred Close
				}
				for _, e := range run {
					took <- e.ID
				}
			}
		}()
		returns(t, "lockstep", func() {
			for want := uint64(1); want <= rounds; want++ {
				b.Publish(ctx, "t", []byte{1})
				if id := <-took; id != want {
					t.Errorf("reader took id %d, want %d", id, want)
					return
				}
			}
		})
	})

	t.Run("publishers", func(t *testing.T) {
		// The reader drains faster than four publishers append, so it parks
		// over and over with appends in flight; IDs stay exactly-once, in order.
		const publishers, each = 4, 3000
		b := NewBroker(publishers * each)
		defer b.Close()
		ctx := context.Background()
		cur, err := b.Follow(ctx, "t", 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if i%7 == 0 {
						b.PublishBatch(ctx, "t", [][]byte{{1}, {2}, {3}})
						i += 2
					} else {
						b.Publish(ctx, "t", []byte{1})
					}
				}
			}()
		}
		returns(t, "reader", func() {
			for next := uint64(1); next <= publishers*each; {
				run, err := cur.Next()
				if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
				for _, e := range run {
					if e.ID != next {
						t.Errorf("got id %d, want %d", e.ID, next)
						return
					}
					next++
				}
			}
		})
		wg.Wait()
	})

	t.Run("cancel", func(t *testing.T) {
		b := NewBroker(0)
		defer b.Close()
		for i := 0; i < 2000; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			cur, err := b.Follow(ctx, "idle", 0)
			if err != nil {
				t.Fatal(err)
			}
			go cancel()
			returns(t, "Next across cancel", func() {
				if _, err := cur.Next(); !errors.Is(err, context.Canceled) {
					t.Errorf("Next = %v, want context.Canceled", err)
				}
			})
		}
	})

	t.Run("close", func(t *testing.T) {
		for i := 0; i < 2000; i++ {
			b := NewBroker(0)
			cur, err := b.Follow(context.Background(), "t", 0)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				b.Publish(context.Background(), "t", []byte{1})
				b.Close()
			}()
			returns(t, "Next across Close", func() {
				// The entry published before the Close may or may not be read
				// first; the Close is what must get through.
				run, err := cur.Next()
				if err == nil {
					if len(run) != 1 || run[0].ID != 1 {
						t.Errorf("run = %v, want entry 1", run)
					}
					_, err = cur.Next()
				}
				if !errors.Is(err, ErrClosed) {
					t.Errorf("Next = %v, want ErrClosed", err)
				}
			})
		}
	})
}

// TestCursorEndsWithEntriesWaiting: the end of its context ends a cursor that
// never has to park — one whose publishers outrun it — as surely as a parked
// one. (A vertex behind such a cursor could not be stopped.)
func TestCursorEndsWithEntriesWaiting(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := b.Follow(ctx, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*subscribeSlack; i++ {
		b.Publish(context.Background(), "t", []byte{1})
	}
	if run, err := cur.Next(); err != nil || len(run) != subscribeSlack {
		t.Fatalf("Next = run of %d, %v; want %d entries", len(run), err, subscribeSlack)
	}
	cancel()
	if run, err := cur.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = run of %d, %v; want context.Canceled", len(run), err)
	}
}

// TestCursorNextAllocs: once its slice is warm a cursor's Next allocates
// nothing, whether it finds the entries waiting or is woken for them — and
// waking it costs the publisher nothing either.
func TestCursorNextAllocs(t *testing.T) {
	const runs = 1000
	b := NewBroker(2 * runs * subscribeSlack)
	defer b.Close()
	ctx := context.Background()
	batch := make([][]byte, subscribeSlack) // telemetry tuples, so the backlog is sealed
	for i := range batch {
		batch[i], _ = telemetry.NewFact("cpu0", int64(i), float64(i)).MarshalBinary()
	}
	for i := 0; i <= runs; i++ { // AllocsPerRun calls once more, to warm up
		if _, err := b.PublishBatch(ctx, "t", batch); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := b.Follow(ctx, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if run, err := cur.Next(); err != nil || len(run) != subscribeSlack {
			t.Fatalf("Next = run of %d, %v", len(run), err)
		}
	}); n != 0 {
		t.Errorf("Next over waiting entries allocates %v times per call, want 0", n)
	}

	// Ping-pong, so that every Next parks and every publish wakes a reader.
	// AllocsPerRun counts the echo goroutine's allocations too; what a full
	// chunk costs the publish is amortised below one.
	ping, _ := b.Follow(ctx, "ping", 0)
	pong, _ := b.Follow(ctx, "pong", 0)
	go func() {
		for _, err := ping.Next(); err == nil; _, err = ping.Next() {
			b.PublishBatch(ctx, "pong", batch[:1])
		}
	}()
	if n := testing.AllocsPerRun(runs, func() {
		b.PublishBatch(ctx, "ping", batch[:1])
		if _, err := pong.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a publish, a wake and a Next allocate %v times per round trip, want 0", n)
	}
}

// TestCursorNearTailStaysRaw pins the near-tail bound (see chunk): past the
// ramp of small first chunks, a cursor whose run of up to subscribeSlack
// entries ends at the tail reads raw chunks only, for tuples of up to 64 B,
// so it holds no decoded copy of a sealed chunk after any Next — across
// thousands of chunk boundaries, sealed chunks behind it all the while.
func TestCursorNearTailStaysRaw(t *testing.T) {
	b := NewBroker(0)
	defer b.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	// Tuples of 28, 46 and 64 B, half of them the largest; the runs of one
	// metric keep the chunks sealable.
	metrics := []telemetry.MetricID{"cpu0", telemetry.MetricID(strings.Repeat("m", 22)), telemetry.MetricID(strings.Repeat("n", 40))}
	in := telemetry.NewFact(metrics[2], 1_700_000_000_000_000_000, 1000)
	next := func() []byte {
		if rng.Intn(8) == 0 {
			in.Metric = metrics[min(2, rng.Intn(4))]
		}
		in.Timestamp += 5_000_000
		in.Value += rng.NormFloat64()
		p, _ := in.MarshalBinary()
		if len(p) > 64 {
			t.Fatalf("a %d-byte tuple: the bound is for tuples of up to 64 B", len(p))
		}
		return p
	}
	fillTopic(t, b, "t", 500, next)
	cur, err := b.Follow(ctx, "t", 500)
	if err != nil {
		t.Fatal(err)
	}
	bc := cur.(*brokerCursor)
	batch := make([][]byte, subscribeSlack)
	for step := 0; step < 3000; step++ {
		k := subscribeSlack // half the runs as far behind as the bound reaches
		if rng.Intn(2) == 0 {
			k = 1 + rng.Intn(subscribeSlack)
		}
		for i := range batch[:k] {
			batch[i] = next()
		}
		if _, err := b.PublishBatch(ctx, "t", batch[:k]); err != nil {
			t.Fatal(err)
		}
		run, err := cur.Next()
		if err != nil || len(run) != k {
			t.Fatalf("step %d: Next = run of %d, %v; want %d entries", step, len(run), err, k)
		}
		if len(bc.dec.slots) != 0 {
			t.Fatalf("step %d: a run of %d entries ending at the tail, id %d, decoded a sealed chunk", step, k, run[k-1].ID)
		}
	}
	tp, _ := b.topicFor("t", false)
	sealed := 0
	for _, c := range tp.chunks {
		if c.starts == nil {
			sealed++
		}
	}
	if sealed < len(tp.chunks)/2 {
		t.Fatalf("%d of %d chunks sealed: the tuples no longer seal, so the test shows nothing", sealed, len(tp.chunks))
	}
}

// TestCursorRereadsRefilledChunk: a cursor that decoded a sealed chunk, which
// a new leader then cuts inside and refills with other bytes at the same IDs,
// reads the new bytes once the refilled chunk is sealed again — its decoded
// copy is matched to the sealed array it came from, not to the IDs it holds.
func TestCursorRereadsRefilledChunk(t *testing.T) {
	b := NewBroker(1 << 20)
	defer b.Close()
	ctx := context.Background()
	run := func(from, to uint64, v byte) []Entry {
		var es []Entry
		for id := from; id <= to; id++ {
			p, _ := telemetry.NewFact("cpu0", int64(id), float64(v)).MarshalBinary()
			es = append(es, Entry{ID: id, Payload: p})
		}
		return es
	}
	// 28-byte entries fill chunks of 18, 36, 73, 146, ... entries, so IDs
	// 55..127 are the third chunk, sealed once three more follow it.
	if _, err := b.ReplicateAppend(ctx, "t", 1, run(1, 600, 1)); err != nil {
		t.Fatal(err)
	}
	cur, err := b.Follow(ctx, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if es, err := cur.Next(); err != nil || es[len(es)-1].ID != subscribeSlack {
		t.Fatalf("first run: %v", err)
	}
	// The cut at 100 decodes that chunk and caps it at 99; the refill seals
	// it again, in a new array.
	if _, err := b.ReplicateAppend(ctx, "t", 2, run(100, 700, 2)); err != nil {
		t.Fatal(err)
	}
	tp, _ := b.topicFor("t", false)
	if c := tp.chunks[tp.chunkOf(99)]; c.starts != nil || c.first+uint64(c.len()) != 100 {
		t.Fatalf("chunk holding 99: first %d, %d entries, sealed %v; want it sealed and ending at 99", c.first, c.len(), c.starts == nil)
	}
	es, err := cur.Next()
	if err != nil || len(es) != subscribeSlack {
		t.Fatalf("second run: %d entries, %v", len(es), err)
	}
	for _, e := range es {
		var in telemetry.Info
		if err := in.UnmarshalBinary(e.Payload); err != nil {
			t.Fatal(err)
		}
		if want := byte(1 + e.ID/100); byte(in.Value) != want {
			t.Fatalf("entry %d reads as written by leader %v, want %d", e.ID, in.Value, want)
		}
	}
}
