package score

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
)

// flakyPublisher records the size of every publish and fails until healed,
// so tests can assert the store-and-forward backlog drains in batches.
type flakyPublisher struct {
	mu      sync.Mutex
	failing bool
	batches []int // size of each PublishBatch call
	next    uint64
	topics  []string
}

var errDown = fmt.Errorf("fabric down: %w", io.ErrUnexpectedEOF)

func (f *flakyPublisher) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return 0, errDown
	}
	f.batches = append(f.batches, len(payloads))
	f.topics = append(f.topics, topic)
	first := f.next + 1
	f.next += uint64(len(payloads))
	return first, nil
}

func (f *flakyPublisher) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

// TestBufferedPublisherFlushesBacklogInBatches: tuples buffered during an
// outage must drain as one PublishBatch per topic run, not one per tuple.
func TestBufferedPublisherFlushesBacklogInBatches(t *testing.T) {
	f := &flakyPublisher{failing: true}
	p := newPubBuffer(f, "m", 64, 100, &Stats{}, nil)
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		id, err := p.PublishBatch(ctx, "m", [][]byte{{byte(i + 1)}})
		if err != nil {
			t.Fatalf("transient failure must buffer, got %v", err)
		}
		if id != 0 {
			t.Fatalf("buffered publish returned id %d, want 0", id)
		}
	}
	if h := p.Health(); h.Buffered != 10 {
		t.Fatalf("backlog=%d want 10", h.Buffered)
	}

	f.setFailing(false)
	// The next publish first drains the backlog (batched), then sends itself.
	id, err := p.PublishBatch(ctx, "m", [][]byte{[]byte("live")})
	if err != nil {
		t.Fatal(err)
	}
	if id != 11 {
		t.Fatalf("live publish id=%d want 11 (after 10 backlogged)", id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.batches) != 2 || f.batches[0] != 10 || f.batches[1] != 1 {
		t.Fatalf("publishes %v, want one backlog batch of 10 then the live tuple", f.batches)
	}
}

// TestBufferedPublisherBatchedBacklogSplitsTopicRuns: a mixed-topic backlog
// drains as one batch per consecutive same-topic run, preserving order.
func TestBufferedPublisherBatchedBacklogSplitsTopicRuns(t *testing.T) {
	f := &flakyPublisher{failing: true}
	p := newPubBuffer(f, "a", 64, 100, &Stats{}, nil)
	ctx := context.Background()

	for _, topic := range []string{"a", "a", "b", "b", "b", "a"} {
		if _, err := p.PublishBatch(ctx, topic, [][]byte{[]byte(topic)}); err != nil {
			t.Fatal(err)
		}
	}
	f.setFailing(false)
	if _, err := p.PublishBatch(ctx, "a", [][]byte{[]byte("live")}); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Runs: a×2, b×3, a×1 — then the live tuple on "a".
	want := []int{2, 3, 1, 1}
	if len(f.batches) != len(want) {
		t.Fatalf("batches=%v want sizes %v", f.batches, want)
	}
	for i, n := range want {
		if f.batches[i] != n {
			t.Fatalf("batch %d size=%d want %d (%v)", i, f.batches[i], n, f.batches)
		}
	}
	if got := f.topics; got[0] != "a" || got[1] != "b" || got[2] != "a" {
		t.Fatalf("topic order %v, want a,b,a runs", got)
	}
}

// TestBufferedPublisherBatchPassThrough: PublishBatch on a healthy buffer is
// forwarded as one batch; on outage the whole batch lands in the backlog.
func TestBufferedPublisherBatchPassThrough(t *testing.T) {
	f := &flakyPublisher{}
	p := newPubBuffer(f, "m", 64, 100, &Stats{}, nil)
	ctx := context.Background()

	first, err := p.PublishBatch(ctx, "m", [][]byte{[]byte("x"), []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first=%d want 1", first)
	}
	f.setFailing(true)
	if _, err := p.PublishBatch(ctx, "m", [][]byte{[]byte("p"), []byte("q")}); err != nil {
		t.Fatalf("transient batch failure must buffer, got %v", err)
	}
	if h := p.Health(); h.Buffered != 2 {
		t.Fatalf("backlog=%d want 2", h.Buffered)
	}
	f.setFailing(false)
	if _, err := p.PublishBatch(ctx, "m", [][]byte{[]byte("live")}); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.batches) != 3 || f.batches[1] != 2 {
		t.Fatalf("batches=%v want initial batch, backlog batch of 2, live tuple", f.batches)
	}
}
