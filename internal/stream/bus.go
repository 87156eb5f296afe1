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
// read from — four verbs: append, newest, range, and a cursor for a consumer
// that keeps reading. Broker implements it in-process; Client implements it
// against a TCP stream server, letting a vertex live on a different node than
// its queue. Every operation takes a context bounding
// the call (for Follow, the cursor's whole life).
//
// There is no channel form on the interface: a channel needs a goroutine to
// fill it, and in process that goroutine, its wake-ups and the hop through
// the channel cost more than the read they deliver. Client keeps a concrete
// Subscribe returning a channel, as Broker keeps Publish: over TCP a reader
// goroutine per connection exists anyway, and its channel is a convenience
// to callers that select on it.
type Bus interface {
	Publisher
	// Latest returns the newest entry of topic.
	Latest(ctx context.Context, topic string) (Entry, error)
	// Range returns entries with from <= ID <= to (max<=0: unlimited).
	Range(ctx context.Context, topic string, from, to uint64, max int) ([]Entry, error)
	// Follow opens a cursor just past afterID. Whatever can refuse the
	// subscription refuses it here, not in Next; the end of ctx ends the
	// cursor, parked or not.
	Follow(ctx context.Context, topic string, afterID uint64) (Cursor, error)
}

// Cursor is one consumer's place in a topic, driven from the consumer's own
// goroutine: this is the subscription primitive, the XREAD BLOCK way — every
// independent subscriber holds its own last-seen ID, giving Pub-Sub fan-out,
// and one blocking wait drains a whole burst.
type Cursor interface {
	// Next blocks until entries past the cursor exist and returns that run:
	// ID order, contiguous with the run before it unless retention overtook
	// the cursor (it then skips to the oldest retained entry), at most
	// subscribeSlack entries, in a slice the cursor reuses — valid until the
	// next call. It fails with the Follow context's error once that ends and
	// with ErrClosed once the bus closes. One goroutine at a time.
	Next() ([]Entry, error)
}

// subscribeSlack is how many entries a subscription may run ahead of its
// reader: the most entries one Cursor run or one subscription frame carries,
// and the capacity of a subscription's channel.
const subscribeSlack = 64

var (
	_ Bus = (*Broker)(nil)
	_ Bus = (*Client)(nil)
)
