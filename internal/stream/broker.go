// Package stream is Apollo's Pub-Sub communication fabric, an in-process and
// over-TCP substitute for the Redis Streams dependency of the original
// implementation. Each metric is a topic: an append-only, ID-ordered stream
// with bounded retention, blocking consumption and fan-out subscriptions.
package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/telemetry/block"
)

// Entry is one stream record. IDs are assigned per topic, contiguous from 1.
type Entry struct {
	ID      uint64
	Payload []byte
}

// Errors returned by the broker.
var (
	ErrClosed       = errors.New("stream: broker closed")
	ErrNoSuchTopic  = errors.New("stream: no such topic")
	ErrEvicted      = errors.New("stream: requested id evicted from retention window")
	ErrEmptyPayload = errors.New("stream: empty payload")
	// ErrEpochFenced rejects a replicated append (or a publish that depends
	// on one) carrying an epoch older than the topic's: the sender is a
	// deposed leader and must rediscover the current one.
	ErrEpochFenced = errors.New("stream: epoch fenced")
	// ErrReplicaGap rejects a replicated append whose first ID would leave a
	// hole in the follower log; the leader backfills from the follower's
	// reported tail and resends.
	ErrReplicaGap = errors.New("stream: replica gap")
)

// DefaultRetention is how many entries a topic retains when not configured.
const DefaultRetention = 1 << 14

// Chunk capacities: a topic's first chunk holds minChunk payload bytes and
// each later one twice its predecessor's, up to maxChunk. A payload larger
// than maxChunk gets a chunk of its own. maxChunk sizes the raw region every
// topic pins (its tail, and the chunk before it until the tail holds
// subscribeSlack entries); see chunk for the bound it must keep.
const (
	minChunk = 512
	maxChunk = 4 << 10
)

// chunk holds the payloads of a contiguous ID run, raw or sealed. Neither
// data nor the offsets contain a pointer, so the GC never scans a topic's
// contents.
//
// A raw chunk lays the payloads back to back in data, (*starts)[i] the
// offset of entry first+i. Its data is allocated once at a fixed capacity
// and only ever extended: bytes below len(data) are never rewritten, because
// readers hold views of them after t.mu is released. Offsets are 16-bit: an
// entry starts below maxChunk (below twice that in a tail a cut decoded),
// unless it is an oversized payload, which starts its own chunk at 0.
//
// A sealed chunk (starts nil) holds its entries as one block frame (see
// seal), in a new array of exactly that size that is never written either;
// the frame's header says how many. Most of a topic's chunks are sealed, so
// the offsets sit behind a pointer: a sealed chunk's slot is 40 bytes. The
// tail, which appends extend, is never sealed; the chunk before it is sealed
// once the tail holds subscribeSlack entries (or, if it never does, once the
// next chunk opens), and either only if sealing shrinks it. A sealed chunk is
// read by decoding it into memory the reader owns (see unsealed), so the
// raw array it replaced stays valid for every view already handed out.
//
// The near-tail bound: a cursor reading a run of subscribeSlack entries that
// ends at the tail reads raw bytes only, so a subscriber that keeps up never
// decodes. While the tail holds fewer than subscribeSlack entries the chunk
// before it is raw; once a topic's chunks have reached maxChunk that chunk
// holds at least subscribeSlack entries for payloads of up to
// maxChunk/subscribeSlack bytes (64 B at 4 KiB): the tail opened because a
// payload of at most that size did not fit, so the chunk before it holds
// more than maxChunk minus that size. A telemetry tuple is 28-45 B. A
// smaller maxChunk, or a bigger slack, breaks this;
// TestCursorNearTailStaysRaw pins it. A replica whose tail a new leader cut
// (see truncateTailLocked) may have a sealed chunk before a short tail until
// the next chunk opens: such a cursor decodes, as it would far behind.
type chunk struct {
	first  uint64    // ID of the first entry
	data   []byte    // payloads of first, first+1, ... in order, or their frame
	starts *[]uint16 // a raw chunk's entry offsets; nil once sealed
}

// len is how many entries the chunk holds.
func (c *chunk) len() int {
	if c.starts == nil {
		return block.Records(c.data)
	}
	return len(*c.starts)
}

// payload returns entry first+i of a raw chunk, capacity-capped so an append
// on it cannot reach the next entry's bytes. An entry ends where the next
// starts, the last at len(data).
func (c *chunk) payload(i int) []byte {
	starts, end := *c.starts, len(c.data)
	if i+1 < len(starts) {
		end = int(starts[i+1])
	}
	return c.data[starts[i]:end:end]
}

// read appends zero-copy views of the entries id, id+1, ... of a raw chunk to
// out: n of them, or as many as the chunk holds from id on.
func (c *chunk) read(out []Entry, id uint64, n int) []Entry {
	i := int(id - c.first)
	for j := min(i+n, len(*c.starts)); i < j; i++ {
		out = append(out, Entry{ID: id, Payload: c.payload(i)})
		id++
	}
	return out
}

// bytes is the memory the chunk holds: its data capacity and its offsets.
func (c *chunk) bytes() int {
	if c.starts == nil {
		return cap(c.data)
	}
	return cap(c.data) + 2*cap(*c.starts)
}

// sealer is the scratch seal encodes with: a block, the frame rendered from
// it, and the tuple each entry decodes into, whose metric name the decode
// keeps while it stays the same.
type sealer struct {
	w     block.Writer
	frame []byte
	in    telemetry.Info
}

var sealers = sync.Pool{New: func() any { return new(sealer) }}

// seal returns a raw chunk's entries as one block frame in an array of
// exactly its size, or nil when the chunk is sealed already, when that would
// not be smaller than data, and when an entry is not a tuple the frame
// reproduces byte for byte: one telemetry.Info, CRC checked, whose decode
// consumes all of it (the encoding is canonical, so AppendBinary rebuilds
// the bytes) and whose Source is Measured or Predicted, the frame's one bit.
// Every product producer publishes Info; any other payload keeps its chunk
// raw.
func (c *chunk) seal() []byte {
	if c.starts == nil || len(*c.starts) > block.MaxRecords {
		return nil // sealed, or more than one frame holds
	}
	s := sealers.Get().(*sealer)
	defer sealers.Put(s)
	defer s.w.Reset()
	for i := range *c.starts {
		p := c.payload(i)
		if s.in.UnmarshalBinary(p) != nil || s.in.EncodedSize() != len(p) || s.in.Source > telemetry.Predicted {
			return nil
		}
		s.w.Add(s.in)
	}
	if s.frame = s.w.AppendFrame(s.frame[:0], 0); len(s.frame) >= len(c.data) {
		return nil
	}
	return append(make([]byte, 0, len(s.frame)), s.frame...)
}

// unseal decodes entries i..j-1 of a sealed chunk into the raw chunk dst,
// reusing its arrays (its offsets may be shared with other chunks) and r's
// metric names. Every entry is re-encoded with the same AppendBinary its
// publisher used, into arrays sized once from the entry count and the first
// entry's size, which every entry of a one-metric chunk shares. A sealed
// frame was rendered in this process and never leaves it, so one that does
// not decode is a broken invariant, not bad input.
func (c *chunk) unseal(dst chunk, i, j int, r *block.Reader) chunk {
	if dst.starts == nil {
		dst.starts = new([]uint16)
	}
	dst.first, dst.data, *dst.starts = c.first+uint64(i), dst.data[:0], slices.Grow((*dst.starts)[:0], j-i)
	_, err := r.Open(c.data)
	for k := 0; err == nil && k < j; k++ {
		if !r.Next() {
			err = fmt.Errorf("entry %d of %d: %v", k, c.len(), r.Err())
		} else if k >= i {
			in := r.Info()
			if size := (j - i) * in.EncodedSize(); k == i && cap(dst.data) < size {
				dst.data = make([]byte, 0, size)
			}
			*dst.starts = append(*dst.starts, uint16(len(dst.data)))
			dst.data, _ = in.AppendBinary(dst.data)
		}
	}
	if err != nil {
		panic(fmt.Sprintf("stream: the sealed chunk of ids %d..%d does not decode: %v", c.first, c.first+uint64(c.len())-1, err))
	}
	return dst
}

// unsealed is a cursor's decoded copies of the sealed chunks it reads. It
// decodes each chunk whole, once, into a slot it reuses while the cursor's
// runs keep reading that chunk; slots[:used] serve the run being read. A
// slot keeps its sealed array alive and is matched by it, so a chunk
// truncated away and refilled never matches a stale copy.
type unsealed struct {
	slots []unsealedSlot
	used  int
	dec   block.Reader
}

type unsealedSlot struct {
	src []byte // the sealed array raw was decoded from
	raw chunk
}

// of returns a raw chunk holding every entry of the sealed chunk c.
func (u *unsealed) of(c *chunk) *chunk {
	s := u.used
	for s < len(u.slots) && &u.slots[s].src[0] != &c.data[0] {
		s++
	}
	if s == len(u.slots) {
		if s = u.used; s == len(u.slots) {
			u.slots = append(u.slots, unsealedSlot{})
		}
		u.slots[s].src, u.slots[s].raw = c.data, c.unseal(u.slots[s].raw, 0, c.len(), &u.dec)
	}
	u.slots[u.used], u.slots[s] = u.slots[s], u.slots[u.used]
	u.used++
	return &u.slots[u.used-1].raw
}

// topic is a single append-only stream: a log of chunks holding the entries
// firstID..nextID-1. No chunk is empty, each starts where the one before it
// ends, and chunks[0] holds firstID. Retention is exact by count (firstID
// advances one entry per append past it); memory is released a whole chunk
// at a time, once every entry of chunks[0] is below firstID.
type topic struct {
	mu        sync.Mutex
	name      string
	chunks    []chunk
	firstID   uint64 // oldest retained id
	nextID    uint64
	retention int
	// Readers with nothing to read wait on grew (whose lock is mu) and count
	// themselves in parked, so an append with nobody waiting signals nobody.
	grew   sync.Cond
	parked int
	// epoch is the topic's fencing token: replicated appends carrying an
	// older epoch are rejected, never silently accepted. 0 until the topic
	// joins a replicated fabric.
	epoch uint64
}

func newTopic(name string, retention int) *topic {
	if retention < 1 {
		retention = DefaultRetention
	}
	t := &topic{
		name:      name,
		firstID:   1,
		nextID:    1,
		retention: retention,
	}
	t.grew.L = &t.mu
	return t
}

// appendLocked copies one non-empty payload onto the tail chunk, opening a
// new chunk when it does not fit, and seals the chunk before the tail once
// the tail holds subscribeSlack entries (see chunk). The caller holds t.mu
// and, once the whole batch is in place and t.mu released, wakes the
// readers if any are parked.
func (t *topic) appendLocked(p []byte, b *Broker) {
	n := len(t.chunks)
	held := 0 // what the tail chunk held before this append
	if n > 0 && len(t.chunks[n-1].data)+len(p) <= cap(t.chunks[n-1].data) {
		held = t.chunks[n-1].bytes()
	} else {
		size := minChunk
		if n > 0 {
			size = min(max(2*cap(t.chunks[n-1].data), minChunk), maxChunk)
		}
		size = max(size, len(p))
		// Sized for payloads like this one; append grows it otherwise.
		starts := make([]uint16, 0, size/max(len(p), 16))
		t.chunks = append(t.chunks, chunk{first: t.nextID, data: make([]byte, 0, size), starts: &starts})
		// The chunk now third-newest was left raw if the one after it never
		// held subscribeSlack entries.
		if n++; n >= 3 && t.chunks[n-2].len() < subscribeSlack {
			t.sealLocked(n-3, b)
		}
	}
	c := &t.chunks[n-1]
	*c.starts = append(*c.starts, uint16(len(c.data)))
	c.data = append(c.data, p...)
	if grew := c.bytes() - held; grew > 0 {
		b.addLogBytes(grew)
	}
	if n >= 2 && len(*c.starts) == subscribeSlack {
		t.sealLocked(n-2, b)
	}
	t.nextID++
	if t.nextID-t.firstID > uint64(t.retention) {
		t.firstID++
		b.obsEvicted.Inc()
		if head := &t.chunks[0]; head.first+uint64(head.len()) <= t.firstID {
			b.addLogBytes(-head.bytes())
			copy(t.chunks, t.chunks[1:])
			t.chunks[n-1] = chunk{}
			t.chunks = t.chunks[:n-1]
		}
	}
}

// sealLocked replaces chunk i, if raw, by its sealed form, if it has one.
// The caller holds t.mu.
func (t *topic) sealLocked(i int, b *Broker) {
	c := &t.chunks[i]
	if p := c.seal(); p != nil {
		b.addLogBytes(len(p) - c.bytes())
		c.data, c.starts = p, nil
	}
}

// chunkOf returns the index of the chunk holding a retained id. Reads at
// the tail are the common case, so the last chunk is tried before searching.
func (t *topic) chunkOf(id uint64) int {
	lo, hi := 0, len(t.chunks)-1
	if t.chunks[hi].first <= id {
		return hi
	}
	for hi-lo > 1 { // chunks[lo].first <= id < chunks[hi].first
		if mid := (lo + hi) / 2; t.chunks[mid].first <= id {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// readLocked fills out, which arrives empty, with the n >= 1 retained entries
// from, from+1, ...: views of raw chunks, and of sealed ones decoded through
// u (see unsealed). With u nil, each sealed chunk decodes just the entries
// read, into arrays the caller keeps, and one decoder serves the whole read.
// The caller holds t.mu and has checked the run lies in firstID..nextID-1.
func (t *topic) readLocked(out []Entry, from uint64, n int, u *unsealed) []Entry {
	var (
		dec  block.Reader // with u nil: the read's one decoder
		kept chunk        // with u nil: the entries of a sealed chunk read
	)
	if u != nil {
		u.used = 0
	}
	for ci := t.chunkOf(from); len(out) < n; ci++ {
		c, id := &t.chunks[ci], from+uint64(len(out))
		if c.starts == nil && u != nil {
			c = u.of(c)
		} else if c.starts == nil {
			// A new payload array for each chunk; the offsets, which no
			// entry refers to, are reused.
			i := int(id - c.first)
			kept = c.unseal(chunk{starts: kept.starts}, i, min(i+n-len(out), c.len()), &dec)
			c = &kept
		}
		out = c.read(out, id, n-len(out))
	}
	if u != nil && u.used == 0 {
		u.slots = nil // caught up: the decoded copies go
	}
	return out
}

// wakeOn has the end of ctx wake t's parked readers. The wake passes through
// t.mu, so it cannot fall between a reader's look at ctx and its park. The
// returned stop withdraws the arrangement.
func (t *topic) wakeOn(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		t.mu.Lock()
		t.grew.Broadcast()
		t.mu.Unlock()
	})
}

// awaitLocked parks the caller, who holds t.mu, until the log holds an entry
// past after and returns the ID of the first such entry still retained — a
// reader behind retention skips to firstID. It fails with ErrClosed once
// the broker closes and with ctx's error once ctx ends; a caller whose ctx is
// not yet watched (see wakeOn) has it watched for as long as it is parked.
func (t *topic) awaitLocked(ctx context.Context, b *Broker, after uint64, watched bool) (from uint64, err error) {
	var stop func() bool
	for {
		if from = max(after+1, t.firstID); from < t.nextID {
			break
		}
		if b.closed.Load() {
			err = ErrClosed
			break
		}
		if err = ctx.Err(); err != nil {
			break
		}
		if !watched {
			stop, watched = t.wakeOn(ctx), true
		}
		t.parked++
		t.grew.Wait()
		t.parked--
	}
	if stop != nil {
		stop()
	}
	return from, err
}

// Broker owns a set of topics. A topic is created once, when its metric
// registers, and looked up on every publish and read, so the name → *topic map
// is a sync.Map that lookups read without a lock; mu serializes creation with
// Close.
type Broker struct {
	topics    sync.Map
	mu        sync.Mutex
	retention int
	closed    atomic.Bool
	nTopics   atomic.Int64
	logBytes  atomic.Int64 // sum of chunk.bytes over every chunk held

	// Optional obs instruments (nil-safe no-ops when not instrumented).
	obsPublishes    *obs.Counter
	obsPublishBytes *obs.Counter
	obsEvicted      *obs.Counter
	obsTopics       *obs.Gauge
	obsLogBytes     *obs.Gauge
	obsConsumeLag   *obs.Histogram
	obsBatchSize    *obs.Histogram
}

// Instrument registers the broker's instruments on r:
// stream_broker_publish_total, stream_broker_publish_bytes_total,
// stream_broker_evicted_total (entries pushed out of the retention window),
// the stream_broker_topics gauge, the stream_broker_log_bytes gauge (payload
// and offset capacity of every chunk, raw or sealed, the topic logs
// currently hold; moves only when a chunk is allocated, grows its offsets,
// is sealed, unsealed or capped by a cut, or is dropped), the
// stream_broker_consume_lag histogram
// (how many entries behind the topic head a consumer was when its read was
// served), and the stream_broker_publish_batch_size histogram. Call before
// the broker is shared between goroutines.
func (b *Broker) Instrument(r *obs.Registry) {
	b.obsPublishes = r.Counter("stream_broker_publish_total")
	b.obsPublishBytes = r.Counter("stream_broker_publish_bytes_total")
	b.obsEvicted = r.Counter("stream_broker_evicted_total")
	b.obsTopics = r.Gauge("stream_broker_topics")
	b.obsLogBytes = r.Gauge("stream_broker_log_bytes")
	b.obsConsumeLag = r.Histogram("stream_broker_consume_lag", 0, 1, 10, 100, 1000, 10000)
	b.obsBatchSize = r.Histogram("stream_broker_publish_batch_size", 1, 2, 4, 8, 16, 32, 64, 128, 256)
	b.obsTopics.Set(float64(b.nTopics.Load()))
	b.obsLogBytes.Set(float64(b.logBytes.Load()))
}

// addLogBytes accounts for chunk memory gained (or, negative, released).
func (b *Broker) addLogBytes(n int) {
	b.obsLogBytes.Set(float64(b.logBytes.Add(int64(n))))
}

// NewBroker returns a broker whose topics retain up to retention entries
// each (0 means DefaultRetention).
func NewBroker(retention int) *Broker {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Broker{retention: retention}
}

// topicFor returns (creating if needed) the named topic.
func (b *Broker) topicFor(name string, create bool) (*topic, error) {
	if b.closed.Load() {
		return nil, ErrClosed
	}
	if t, ok := b.topics.Load(name); ok {
		return t.(*topic), nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTopic, name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Load() {
		return nil, ErrClosed
	}
	if t, ok := b.topics.Load(name); ok {
		return t.(*topic), nil
	}
	t := newTopic(name, b.retention)
	b.topics.Store(name, t)
	b.obsTopics.Set(float64(b.nTopics.Add(1)))
	return t, nil
}

// Publish appends payload to the named topic (creating it on first use) and
// returns the assigned entry ID: a batch of one, kept off the Bus interface
// as a convenience for callers holding a *Broker.
func (b *Broker) Publish(ctx context.Context, topicName string, payload []byte) (uint64, error) {
	return b.publish(ctx, topicName, [][]byte{payload}, nil)
}

// PublishBatch appends every payload to the named topic under one lock
// acquisition and one consumer wake-up, returning the ID of the first entry;
// the batch receives contiguous IDs firstID..firstID+len(payloads)-1. An
// empty batch is a no-op returning (0, nil); any empty payload rejects the
// whole batch before anything is appended.
func (b *Broker) PublishBatch(ctx context.Context, topicName string, payloads [][]byte) (uint64, error) {
	return b.publish(ctx, topicName, payloads, b.obsBatchSize)
}

// publish is the broker's one append path: each payload is copied once,
// under t.mu, straight onto the topic's tail chunk, so a publish allocates
// only when a chunk fills. sizes is the batch-size histogram PublishBatch
// calls are counted in (nil for Publish, so the histogram's entry sum stays
// "tuples that arrived in batches").
func (b *Broker) publish(ctx context.Context, topicName string, payloads [][]byte, sizes *obs.Histogram) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(payloads) == 0 {
		return 0, nil
	}
	total := 0
	for _, p := range payloads {
		if len(p) == 0 {
			return 0, ErrEmptyPayload
		}
		total += len(p)
	}
	t, err := b.topicFor(topicName, true)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	first := t.nextID
	for _, p := range payloads {
		t.appendLocked(p, b)
	}
	parked := t.parked > 0
	t.mu.Unlock()
	if parked {
		t.grew.Broadcast() // one wake covers the whole batch
	}
	b.obsPublishes.Add(uint64(len(payloads)))
	b.obsPublishBytes.Add(uint64(total))
	sizes.Observe(float64(len(payloads)))
	return first, nil
}

// Epoch returns the topic's current fencing epoch (0 when the topic does
// not exist or was never fenced).
func (b *Broker) Epoch(topicName string) uint64 {
	t, err := b.topicFor(topicName, false)
	if err != nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// SetEpoch raises the topic's fencing epoch (creating the topic if needed).
// Lowering is a silent no-op: epochs only move forward.
func (b *Broker) SetEpoch(ctx context.Context, topicName string, epoch uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t, err := b.topicFor(topicName, true)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if epoch > t.epoch {
		t.epoch = epoch
	}
	t.mu.Unlock()
	return nil
}

// TopicTail returns the topic's fencing epoch and last assigned entry ID
// (both 0 when the topic does not exist) — the catch-up probe a promoted
// follower runs against every replica before serving.
func (b *Broker) TopicTail(ctx context.Context, topicName string) (epoch, lastID uint64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	t, terr := b.topicFor(topicName, false)
	if terr != nil {
		if errors.Is(terr, ErrNoSuchTopic) {
			return 0, 0, nil
		}
		return 0, 0, terr
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch, t.nextID - 1, nil
}

// ReplicateAppend applies a leader's append stream to this (follower)
// replica, enforcing epoch fencing:
//
//   - epoch < topic epoch: rejected with ErrEpochFenced — a deposed
//     leader's entries are never silently accepted.
//   - epoch > topic epoch: the follower adopts the new epoch and truncates
//     any conflicting local tail at or past the first incoming ID (those
//     entries were never acked under the new epoch).
//   - entries at or below the local tail are deduplicated; an entry that
//     would leave a gap fails with ErrReplicaGap so the leader can backfill
//     from the returned lastID.
//
// It returns the follower's last entry ID after the append. A nil entries
// slice is an epoch beacon: it fences/advances the epoch without appending.
// An empty payload anywhere in entries — which no leader could have acked —
// rejects the whole batch with ErrEmptyPayload before anything changes.
func (b *Broker) ReplicateAppend(ctx context.Context, topicName string, epoch uint64, entries []Entry) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for _, e := range entries {
		if len(e.Payload) == 0 {
			return 0, fmt.Errorf("%w: replicated entry %d of topic %q", ErrEmptyPayload, e.ID, topicName)
		}
	}
	t, err := b.topicFor(topicName, true)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch < t.epoch {
		return t.nextID - 1, fmt.Errorf("%w: topic %q at epoch %d, append at %d", ErrEpochFenced, topicName, t.epoch, epoch)
	}
	if epoch > t.epoch {
		t.epoch = epoch
		if len(entries) > 0 {
			t.truncateTailLocked(entries[0].ID, b)
		}
	}
	var gap error
	tail := t.nextID
	for _, e := range entries {
		if e.ID < t.nextID {
			continue // duplicate of an entry this replica already holds
		}
		if e.ID > t.nextID {
			gap = fmt.Errorf("%w: topic %q tail %d, incoming %d", ErrReplicaGap, topicName, t.nextID-1, e.ID)
			break
		}
		t.appendLocked(e.Payload, b)
	}
	if t.nextID > tail && t.parked > 0 {
		t.grew.Broadcast()
	}
	return t.nextID - 1, gap
}

// truncateTailLocked discards local entries with ID >= fromID — the
// conflicting suffix a replica drops when adopting a new leader's epoch.
// Whole chunks past the cut are dropped; the chunk the cut falls inside is
// capped there (its capacity cut to its length), so the next append opens a
// fresh chunk instead of rewriting bytes a reader may still hold a view of.
// A sealed chunk left as the tail is first decoded into new arrays, which no
// reader has seen. The caller holds t.mu.
func (t *topic) truncateTailLocked(fromID uint64, b *Broker) {
	if fromID >= t.nextID {
		return
	}
	n := len(t.chunks)
	for ; n > 0 && t.chunks[n-1].first >= fromID; n-- {
		b.addLogBytes(-t.chunks[n-1].bytes())
		t.chunks[n-1] = chunk{}
	}
	t.chunks = t.chunks[:n]
	if n > 0 {
		c := &t.chunks[n-1]
		if c.starts == nil { // the tail is sealed: decode it, so the tail is raw again
			raw := c.unseal(chunk{}, 0, c.len(), new(block.Reader))
			b.addLogBytes(raw.bytes() - c.bytes())
			*c = raw
		}
		if k := int(fromID - c.first); k < len(*c.starts) {
			end := int((*c.starts)[k])
			b.addLogBytes(end - cap(c.data))
			c.data, *c.starts = c.data[:end:end], (*c.starts)[:k]
		}
	}
	t.nextID = fromID
	// A cut below the retention window leaves an empty log starting at fromID.
	t.firstID = min(t.firstID, fromID)
}

// Topics returns the sorted names of all topics.
func (b *Broker) Topics() []string {
	out := make([]string, 0, b.nTopics.Load())
	b.topics.Range(func(name, _ any) bool {
		out = append(out, name.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// Latest returns the newest entry of a topic.
func (b *Broker) Latest(ctx context.Context, topicName string) (Entry, error) {
	if err := ctx.Err(); err != nil {
		return Entry{}, err
	}
	t, err := b.topicFor(topicName, false)
	if err != nil {
		return Entry{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nextID == t.firstID {
		return Entry{}, fmt.Errorf("%w: %q has no entries", ErrNoSuchTopic, topicName)
	}
	var one [1]Entry
	return t.readLocked(one[:0], t.nextID-1, 1, nil)[0], nil
}

// Range returns up to max entries with from <= ID <= to (max<=0 means all
// retained). Requesting a from older than the retention window returns
// ErrEvicted.
func (b *Broker) Range(ctx context.Context, topicName string, from, to uint64, max int) ([]Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t, err := b.topicFor(topicName, false)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < t.firstID && from < t.nextID && t.firstID > 1 {
		return nil, ErrEvicted
	}
	if from < t.firstID {
		from = t.firstID
	}
	if to >= t.nextID {
		to = t.nextID - 1
	}
	if from > to {
		return nil, nil
	}
	n := int(to - from + 1)
	if max > 0 && n > max {
		n = max
	}
	return t.readLocked(make([]Entry, 0, n), from, n, nil), nil
}

// ConsumeBatch blocks until at least one entry with ID > afterID exists, then
// returns up to max available entries in ID order (max <= 0 means everything
// retained; max 1 is the earliest such entry) in a slice of the caller's own.
// One call is one read at a stated position; a consumer that keeps reading
// holds a Cursor (Follow), which remembers the position and reuses the slice.
// It is on no interface, as Publish is not: the pipeline benchmark's replay
// is its one caller.
func (b *Broker) ConsumeBatch(ctx context.Context, topicName string, afterID uint64, max int) ([]Entry, error) {
	t, err := b.topicFor(topicName, true)
	if err != nil {
		return nil, err
	}
	once := brokerCursor{ctx: ctx, b: b, t: t, last: afterID}
	return once.next(max, false)
}

// brokerCursor is the in-process Cursor: the topic it holds, where it is, the
// slice it hands out and, for a Follow cursor, its decoded copies of sealed
// chunks. No goroutine, no channel, nothing allocated by Next once warm.
type brokerCursor struct {
	ctx  context.Context
	b    *Broker
	t    *topic
	last uint64
	run  []Entry
	dec  *unsealed // nil: each read decodes into arrays of the caller's own
}

// Follow opens a cursor on the named topic (creating it on first use) just
// past afterID. The end of ctx ends the cursor, parked or not.
func (b *Broker) Follow(ctx context.Context, topicName string, afterID uint64) (Cursor, error) {
	t, err := b.topicFor(topicName, true)
	if err != nil {
		return nil, err
	}
	t.wakeOn(ctx)
	return &brokerCursor{ctx: ctx, b: b, t: t, last: afterID, dec: new(unsealed)}, nil
}

// Next implements Cursor. An ended cursor is ended even with entries waiting:
// a consumer that never catches up with its publishers must still see the end.
func (c *brokerCursor) Next() ([]Entry, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return c.next(subscribeSlack, true)
}

// next is the broker's one blocking read: up to max entries past the cursor
// (max <= 0: all there are), into the cursor's slice. watched says that the
// end of c.ctx already wakes the topic's readers.
func (c *brokerCursor) next(max int, watched bool) ([]Entry, error) {
	t := c.t
	t.mu.Lock()
	from, err := t.awaitLocked(c.ctx, c.b, c.last, watched)
	if err != nil {
		t.mu.Unlock()
		return nil, err
	}
	n := int(t.nextID - from)
	if max > 0 && n > max {
		n = max
	}
	c.run = t.readLocked(slices.Grow(c.run[:0], n), from, n, c.dec)
	c.last = from + uint64(n) - 1
	lag := t.nextID - 1 - from // entries behind the topic head
	t.mu.Unlock()
	c.b.obsConsumeLag.Observe(float64(lag))
	return c.run, nil
}

// Close marks the broker closed; subsequent operations fail with ErrClosed
// and parked readers are woken to find that out. Setting the mark under mu
// means a topic created concurrently is either refused or stored before the
// wake-up pass, which then reaches it.
func (b *Broker) Close() {
	b.mu.Lock()
	closing := b.closed.CompareAndSwap(false, true)
	b.mu.Unlock()
	if !closing {
		return
	}
	b.topics.Range(func(_, v any) bool {
		t := v.(*topic)
		t.mu.Lock() // see wakeOn
		t.grew.Broadcast()
		t.mu.Unlock()
		return true
	})
}
