package stream

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPublishAssignsSequentialIDs(t *testing.T) {
	b := NewBroker(0)
	for i := 1; i <= 5; i++ {
		id, err := b.Publish(context.Background(), "t", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i) {
			t.Fatalf("id=%d want %d", id, i)
		}
	}
	_, n, err := b.TopicTail(context.Background(), "t")
	if err != nil || n != 5 {
		t.Fatalf("last ID=%d err=%v", n, err)
	}
}

func TestPublishEmptyPayload(t *testing.T) {
	b := NewBroker(0)
	if _, err := b.Publish(context.Background(), "t", nil); !errors.Is(err, ErrEmptyPayload) {
		t.Fatalf("err=%v", err)
	}
}

func TestPublishCopiesPayload(t *testing.T) {
	b := NewBroker(0)
	p := []byte{1, 2, 3}
	b.Publish(context.Background(), "t", p)
	p[0] = 99
	e, err := b.Latest(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if e.Payload[0] != 1 {
		t.Fatal("broker aliased caller's payload")
	}
}

func TestLatestAndRange(t *testing.T) {
	b := NewBroker(0)
	for i := 1; i <= 10; i++ {
		b.Publish(context.Background(), "t", []byte{byte(i)})
	}
	e, err := b.Latest(context.Background(), "t")
	if err != nil || e.ID != 10 {
		t.Fatalf("Latest=%v err=%v", e, err)
	}
	es, err := b.Range(context.Background(), "t", 3, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 4 || es[0].ID != 3 || es[3].ID != 6 {
		t.Fatalf("Range=%v", es)
	}
	es, err = b.Range(context.Background(), "t", 3, 100, 2)
	if err != nil || len(es) != 2 {
		t.Fatalf("capped Range=%v err=%v", es, err)
	}
	es, err = b.Range(context.Background(), "t", 11, 20, 0)
	if err != nil || es != nil {
		t.Fatalf("future Range=%v err=%v", es, err)
	}
}

func TestRangeMissingTopic(t *testing.T) {
	b := NewBroker(0)
	if _, err := b.Range(context.Background(), "nope", 1, 2, 0); !errors.Is(err, ErrNoSuchTopic) {
		t.Fatalf("err=%v", err)
	}
	if _, err := b.Latest(context.Background(), "nope"); !errors.Is(err, ErrNoSuchTopic) {
		t.Fatalf("err=%v", err)
	}
}

func TestRetentionEviction(t *testing.T) {
	b := NewBroker(4)
	for i := 1; i <= 10; i++ {
		b.Publish(context.Background(), "t", []byte{byte(i)})
	}
	// IDs 1..6 evicted, 7..10 retained.
	if _, err := b.Range(context.Background(), "t", 1, 10, 0); !errors.Is(err, ErrEvicted) {
		t.Fatalf("err=%v", err)
	}
	es, err := b.Range(context.Background(), "t", 7, 10, 0)
	if err != nil || len(es) != 4 || es[0].ID != 7 {
		t.Fatalf("retained Range=%v err=%v", es, err)
	}
}

func TestCloseUnblocksConsumers(t *testing.T) {
	b := NewBroker(0)
	errCh := make(chan error, 1)
	go func() {
		_, err := b.ConsumeBatch(context.Background(), "t", 0, 1)
		errCh <- err
	}()
	waitParked(t, b, "t")
	b.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err=%v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock consumer")
	}
	if _, err := b.Publish(context.Background(), "t", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close: %v", err)
	}
}

func TestSubscribeFanOut(t *testing.T) {
	b := NewBroker(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const subs, events = 3, 20
	curs := make([]Cursor, subs)
	for i := range curs {
		cur, err := b.Follow(ctx, "t", 0)
		if err != nil {
			t.Fatal(err)
		}
		curs[i] = cur
	}
	go func() {
		for i := 1; i <= events; i++ {
			b.Publish(context.Background(), "t", []byte{byte(i)})
		}
	}()
	for si, cur := range curs {
		for want := uint64(1); want <= events; {
			run, err := cur.Next()
			if err != nil {
				t.Fatalf("sub %d stalled at %d: %v", si, want, err)
			}
			for _, e := range run {
				if e.ID != want {
					t.Fatalf("sub %d: got id %d want %d", si, e.ID, want)
				}
				want++
			}
		}
	}
}

func TestTopicsSorted(t *testing.T) {
	b := NewBroker(0)
	for _, n := range []string{"zebra", "alpha", "mid"} {
		b.Publish(context.Background(), n, []byte("x"))
	}
	got := b.Topics()
	want := []string{"alpha", "mid", "zebra"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Topics=%v", got)
	}
}

func TestConsumeSkipsEvicted(t *testing.T) {
	b := NewBroker(4)
	for i := 1; i <= 10; i++ {
		b.Publish(context.Background(), "t", []byte{byte(i)})
	}
	es, err := b.ConsumeBatch(context.Background(), "t", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].ID != 7 { // oldest retained
		t.Fatalf("entries=%v want id 7", es)
	}
}

func BenchmarkBrokerPublish(b *testing.B) {
	br := NewBroker(1 << 10)
	payload := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := br.Publish(context.Background(), "t", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrokerConsume(b *testing.B) {
	// Publish-then-consume pairs so the bench never outruns the retention
	// window (a blocked ConsumeBatch would deadlock the benchmark).
	br := NewBroker(1 << 10)
	payload := make([]byte, 16)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var last uint64
	for i := 0; i < b.N; i++ {
		if _, err := br.Publish(context.Background(), "t", payload); err != nil {
			b.Fatal(err)
		}
		es, err := br.ConsumeBatch(ctx, "t", last, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = es[0].ID
	}
}

// BenchmarkBrokerSubscribe is the in-process hop a vertex's output takes to a
// subscriber: publish, the wake of the reader parked in its cursor, its read.
// Two goroutines play ping-pong over two topics, so every delivery finds its
// reader parked and nothing but the bus is between them; a burst is published
// as one batch (a poll with its predictions is 4) and arrives as one run. An
// op is one entry delivered.
func BenchmarkBrokerSubscribe(b *testing.B) {
	for _, burst := range []int{1, 4} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			br := NewBroker(1 << 10)
			defer br.Close()
			ctx := context.Background()
			ping, _ := br.Follow(ctx, "ping", 0)
			pong, _ := br.Follow(ctx, "pong", 0)
			batch := make([][]byte, burst)
			for i := range batch {
				batch[i] = make([]byte, 28)
			}
			go func() {
				for _, err := ping.Next(); err == nil; _, err = ping.Next() {
					br.PublishBatch(ctx, "pong", batch)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 * burst {
				if _, err := br.PublishBatch(ctx, "ping", batch); err != nil {
					b.Fatal(err)
				}
				if run, err := pong.Next(); err != nil || len(run) != burst {
					b.Fatalf("run of %d, %v; want %d", len(run), err, burst)
				}
			}
		})
	}
}
