package score

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// switchBus is a GroupBus whose backing broker can be swapped mid-run —
// simulating a fabric client whose redirects land it on a promoted
// follower after the original leader died.
type switchBus struct {
	mu    sync.Mutex
	inner stream.GroupBus
}

func (s *switchBus) get() stream.GroupBus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

func (s *switchBus) swap(b stream.GroupBus) {
	s.mu.Lock()
	s.inner = b
	s.mu.Unlock()
}

func (s *switchBus) PublishBatch(ctx context.Context, topic string, p [][]byte) (uint64, error) {
	return s.get().PublishBatch(ctx, topic, p)
}
func (s *switchBus) Latest(ctx context.Context, topic string) (stream.Entry, error) {
	return s.get().Latest(ctx, topic)
}
func (s *switchBus) Range(ctx context.Context, topic string, from, to uint64, max int) ([]stream.Entry, error) {
	return s.get().Range(ctx, topic, from, to, max)
}
func (s *switchBus) ConsumeBatch(ctx context.Context, topic string, afterID uint64, max int) ([]stream.Entry, error) {
	return s.get().ConsumeBatch(ctx, topic, afterID, max)
}
func (s *switchBus) Follow(ctx context.Context, topic string, afterID uint64) (stream.Cursor, error) {
	return s.get().Follow(ctx, topic, afterID)
}
func (s *switchBus) CreateGroup(ctx context.Context, topic, group string, afterID uint64) error {
	return s.get().CreateGroup(ctx, topic, group, afterID)
}
func (s *switchBus) GroupRead(ctx context.Context, topic, group string) (stream.Entry, error) {
	return s.get().GroupRead(ctx, topic, group)
}
func (s *switchBus) Ack(ctx context.Context, topic, group string, id uint64) error {
	return s.get().Ack(ctx, topic, group, id)
}

// TestStreamArchiverResubscribesAtDurableIDAfterFailover: after the broker
// behind the archiver fails over to a promoted follower (same replicated
// log, no consumer group), the archiver re-creates its group at the last
// DURABLE entry ID and archives exactly the unarchived suffix — no gap, no
// duplicates.
func TestStreamArchiverResubscribesAtDurableIDAfterFailover(t *testing.T) {
	ctx := context.Background()
	const topic = "fo.metric"
	leader := stream.NewBroker(0)
	defer leader.Close()

	log, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	bus := &switchBus{inner: leader}
	a, err := NewStreamArchiver(bus, topic, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}

	var entries []stream.Entry
	for i := 0; i < 3; i++ {
		entries = append(entries, publish(t, leader, telemetry.NewFact(topic, int64(i+1), float64(10+i))))
	}
	waitFor(t, func() bool { return a.Archived() == 3 })
	if a.DurableID() != entries[2].ID {
		t.Fatalf("durable = %d, want %d", a.DurableID(), entries[2].ID)
	}

	// Build the promoted follower: the same replicated log (IDs preserved
	// via the replication path) PLUS two entries the archiver never saw —
	// but NO consumer group (groups are leader-local state).
	follower := stream.NewBroker(0)
	defer follower.Close()
	all := append([]stream.Entry(nil), entries...)
	for i := 3; i < 5; i++ {
		in := telemetry.NewFact(topic, int64(i+1), float64(10+i))
		payload, merr := in.MarshalBinary()
		if merr != nil {
			t.Fatal(merr)
		}
		all = append(all, stream.Entry{ID: uint64(i + 1), Payload: payload})
	}
	if _, err := follower.ReplicateAppend(ctx, topic, 2, all); err != nil {
		t.Fatalf("building follower log: %v", err)
	}

	// Failover: the archiver's bus now reaches the promoted follower, and
	// the old leader dies — unblocking the in-flight GroupRead with
	// ErrClosed, which the archiver must treat as an outage to ride out,
	// not a shutdown.
	bus.swap(follower)
	leader.Close()
	waitFor(t, func() bool { return a.Archived() == 5 })
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	if a.Resubscribes() != 1 {
		t.Fatalf("resubscribes = %d, want 1", a.Resubscribes())
	}

	// Exactly 5 records, in order, no duplicates of the pre-failover prefix.
	var got []telemetry.Info
	if err := log.Replay(func(in telemetry.Info) error { got = append(got, in); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5: %v", len(got), got)
	}
	for i, in := range got {
		if in.Timestamp != int64(i+1) {
			t.Fatalf("record %d has timestamp %d (gap or duplicate)", i, in.Timestamp)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
