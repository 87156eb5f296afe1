package stream

import "context"

// Publisher is the single write surface of the fabric: everything that
// appends entries to a topic — the in-process Broker, the TCP Client, and
// score's store-and-forward BufferedPublisher — implements it. A single
// tuple is a batch of one.
type Publisher interface {
	// PublishBatch appends every payload under one append, returning the ID
	// of the first entry; the batch receives contiguous IDs. An empty batch
	// is a no-op returning (0, nil); an empty payload rejects the whole
	// batch.
	PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error)
}

// Bus is the communication-fabric interface SCoRe vertices publish to and
// subscribe from. Broker implements it in-process; Client implements it
// against a TCP stream server, letting a vertex live on a different node
// than its queue. Every operation takes a context bounding the call.
type Bus interface {
	Publisher
	// Latest returns the newest entry of topic.
	Latest(ctx context.Context, topic string) (Entry, error)
	// Range returns entries with from <= ID <= to (max<=0: unlimited).
	Range(ctx context.Context, topic string, from, to uint64, max int) ([]Entry, error)
	// ConsumeBatch blocks until at least one entry with ID > afterID exists
	// and returns up to max of them in ID order (max<=0: all available);
	// max 1 is the earliest such entry.
	ConsumeBatch(ctx context.Context, topic string, afterID uint64, max int) ([]Entry, error)
	// Subscribe delivers every entry with ID > afterID until ctx ends, then
	// closes the channel.
	Subscribe(ctx context.Context, topic string, afterID uint64) (<-chan Entry, error)
}

// subscribeSlack is how many entries a subscription may run ahead of its
// reader: the capacity of every Subscribe channel and the most entries one
// subscription frame carries.
const subscribeSlack = 64

// GroupBus is the consumer-group surface of a broker: the Bus plus group
// create/read/ack. *Broker and *Client both implement it, so a group
// consumer (e.g. score's StreamArchiver) can run against a local broker or
// ride a TCP client across a replicated fabric unchanged.
type GroupBus interface {
	Bus
	// CreateGroup registers a consumer group on topic starting after afterID.
	CreateGroup(ctx context.Context, topic, group string, afterID uint64) error
	// GroupRead claims the next entry for the group, blocking until one
	// exists.
	GroupRead(ctx context.Context, topic, group string) (Entry, error)
	// Ack acknowledges a group-delivered entry.
	Ack(ctx context.Context, topic, group string, id uint64) error
}

var (
	_ GroupBus = (*Broker)(nil)
	_ GroupBus = (*Client)(nil)
)
