package stream

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrClientClosed is returned by operations on a Close()d client.
var ErrClientClosed = errors.New("stream: client closed")

// timing is the transport schedule of a Client and its subscriptions. Every
// client runs defaultTiming; the package's tests swap the whole value through
// an Option literal to make faults test-sized.
type timing struct {
	// dialTimeout bounds connection establishment.
	dialTimeout time.Duration
	// ioTimeout bounds each frame write and each answer read; a context
	// deadline tightens it. A subscription's stream reads have no deadline:
	// the topic may be idle for good.
	ioTimeout time.Duration
	// attempts is the budget for idempotent operations across transient
	// transport errors.
	attempts int
	// backoffMin and backoffMax bound the jittered exponential backoff
	// between reconnect attempts.
	backoffMin, backoffMax time.Duration
	// redirects bounds how many not-leader redirects one call follows; past
	// it the redirect is handled as a retryable fault.
	redirects int
}

var defaultTiming = timing{
	dialTimeout: 5 * time.Second,
	ioTimeout:   10 * time.Second,
	attempts:    4,
	backoffMin:  50 * time.Millisecond,
	backoffMax:  2 * time.Second,
	redirects:   4,
}

// backoff returns the jittered exponential delay for a retry attempt
// (0-based): uniformly drawn from [d/2, d] where d = backoffMin<<attempt,
// capped at backoffMax.
func (t timing) backoff(attempt int) time.Duration {
	d := t.backoffMin
	for i := 0; i < attempt && d < t.backoffMax; i++ {
		d *= 2
	}
	if d > t.backoffMax {
		d = t.backoffMax
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// options configure a Client and the subscriptions it opens.
type options struct {
	timing
	// coalesceBatch caps how many PublishAsync tuples one group-commit flush
	// carries; coalesceDelay bounds how long the first queued tuple waits
	// before its batch is flushed.
	coalesceBatch int
	coalesceDelay time.Duration
	// reg, if non-nil, receives the client/subscription instruments
	// (reconnects, retries, frame bytes, resumes, dedups, coalesce latency).
	reg *obs.Registry
	// seeds are fabric contact addresses. Setting any (WithSeeds) puts the
	// client in fabric mode: not-leader redirects are followed to the
	// embedded leader address, transient faults rotate the client across the
	// seed list, and publishes ARE retried across failover — delivery
	// becomes at-least-once (a batch whose ack was lost may be re-appended
	// under new IDs) while acks stay at-most-once.
	seeds []string
	// dialer establishes connections and clock drives backoff waits, I/O
	// deadlines and the coalescer timer. Only the package's tests replace
	// them: with a fault-injecting dialer, and with a counting or virtual
	// clock (socket deadlines are then anchored to its Now).
	dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
	clock  sim.Clock
}

// fabric reports whether the client targets a replicated fabric (seeds set).
func (o *options) fabric() bool { return len(o.seeds) > 0 }

// Option customizes a Client and its subscriptions.
type Option func(*options)

// WithCoalesce tunes the PublishAsync group-commit coalescer: a batch is
// flushed when it reaches maxBatch tuples or when the oldest queued tuple
// has waited maxDelay, whichever comes first (defaults 64 and 2ms; a
// non-positive value keeps its default).
func WithCoalesce(maxBatch int, maxDelay time.Duration) Option {
	return func(o *options) {
		if maxBatch > 0 {
			o.coalesceBatch = maxBatch
		}
		if maxDelay > 0 {
			o.coalesceDelay = maxDelay
		}
	}
}

// WithObs registers the client's (and its subscriptions') instruments on r.
func WithObs(r *obs.Registry) Option { return func(o *options) { o.reg = r } }

// WithSeeds enables fabric mode with the given contact addresses (see
// options.seeds); the dialed address is added to the list if absent.
func WithSeeds(addrs ...string) Option {
	return func(o *options) { o.seeds = append(o.seeds, addrs...) }
}

func buildOptions(opts []Option) options {
	o := options{
		timing:        defaultTiming,
		coalesceBatch: 64,
		coalesceDelay: 2 * time.Millisecond,
		dialer:        net.DialTimeout,
		clock:         sim.Wall{},
	}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// transportError marks an error as a connection-level failure: the request
// may or may not have reached the server, and the connection is no longer
// usable. IsTransient reports true for it.
type transportError struct{ err error }

func (e *transportError) Error() string { return "stream: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// IsTransient classifies an error as a connection-level fault worth retrying
// (resets, refusals, timeouts, truncated streams) as opposed to an
// application-level error from the broker (ErrNoSuchTopic, ErrClosed, ...)
// that a retry cannot fix.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) ||
		// A quorum miss means the append was NOT acked and a later attempt
		// (possibly against a promoted leader) can succeed, so buffering
		// publishers treat it like an outage.
		errors.Is(err, ErrNoQuorum)
}

// Client is a TCP client for a stream Server. A Client pipelines its callers'
// requests over a single connection, which answers them in order; Follow
// opens a dedicated connection per subscription. Client is safe for
// concurrent use and satisfies the Bus interface, so a vertex can run against
// a remote broker unchanged.
//
// Every frame is written and its answer read under a deadline; a context
// deadline tightens it and a context cancellation interrupts the call, even
// while it waits behind other callers' answers. On any transport error the
// connection is dropped and lazily re-established by the next call; read-only
// operations (Latest, Range, Topics, Ping) additionally retry across
// transient errors with capped exponential backoff. The mutating operation,
// PublishBatch, is never retried after the request may have been sent, so it
// cannot be duplicated; callers that need delivery guarantees buffer and
// re-publish (see score's store-and-forward BufferedPublisher).
type Client struct {
	addr string
	opt  options

	mu        sync.Mutex
	turn      sync.Cond          // on mu: a wire's recvd advanced, or the wire failed
	wire      *wire              // the connection new requests go out on; nil until dialed
	retired   map[*wire]struct{} // connections redirected away from, answers still due
	connected bool               // a connection was established before (the next is a reconnect)
	closed    bool
	seedIdx   int // index into opt.seeds of the current address (fabric mode)

	// Group-commit coalescer state (lazily started by PublishAsync).
	coMu     sync.Mutex
	coCh     chan pendingPub
	coDone   chan struct{}
	coExited chan struct{}

	// Obs instruments, registered at Dial when WithObs is set (nil-safe
	// no-ops otherwise).
	obsReconnects *obs.Counter
	obsRetries    *obs.Counter
	obsRedirects  *obs.Counter
	obsTxBytes    *obs.Counter
	obsRxBytes    *obs.Counter
	obsCoalesce   *obs.Histogram // queue-to-flush latency of coalesced tuples
	obsBatchSize  *obs.Histogram // tuples per coalesced flush
}

// NewClient builds a client without connecting: the first round-trip dials.
// Use it when the target may not be up yet — e.g. the lease coordinator
// during a rolling fabric bring-up — so construction never fails and calls
// error transiently until the server appears.
func NewClient(addr string, opts ...Option) *Client {
	c := &Client{addr: addr, opt: buildOptions(opts)}
	c.turn.L = &c.mu
	c.joinSeeds()
	if r := c.opt.reg; r != nil {
		c.obsReconnects = r.Counter("stream_client_reconnects_total")
		c.obsRetries = r.Counter("stream_client_retries_total")
		c.obsRedirects = r.Counter("stream_client_redirects_total")
		c.obsTxBytes = r.Counter("stream_client_tx_bytes_total")
		c.obsRxBytes = r.Counter("stream_client_rx_bytes_total")
		c.obsCoalesce = r.Histogram("stream_client_coalesce_seconds", obs.DefLatencyBuckets...)
		c.obsBatchSize = r.Histogram("stream_client_batch_size", 1, 2, 4, 8, 16, 32, 64, 128, 256)
	}
	return c
}

// Dial connects to a stream server. In fabric mode (WithSeeds) the dialed
// address joins the seed list, and a failed first connect falls through to
// the remaining seeds before giving up.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := NewClient(addr, opts...)
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.connectLocked()
	for i := 1; err != nil && c.opt.fabric() && i < len(c.opt.seeds); i++ {
		c.seedIdx = (c.seedIdx + 1) % len(c.opt.seeds)
		c.addr = c.opt.seeds[c.seedIdx]
		err = c.connectLocked()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connectLocked() error {
	conn, err := c.opt.dialer("tcp", c.addr, c.opt.dialTimeout)
	if err != nil {
		return err
	}
	if c.connected {
		c.obsReconnects.Inc()
	}
	c.connected = true
	c.wire = &wire{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	return nil
}

// wire is one established connection and the requests in flight on it. The
// server answers in request order, so the connection is a pipeline: send
// writes a request under Client.mu and takes the next ticket, await reads the
// answers in ticket order. No lock is held between the two halves, but a
// ticket is a place in the queue: a caller with requests out on several
// clients (a fabric leader and its followers) redeems its tickets in the
// order it took them, or two such callers can wait on each other.
type wire struct {
	conn net.Conn
	r    *bufio.Reader // owned by the ticket whose turn it is
	w    *bufio.Writer // guarded by Client.mu, as are the fields below
	// sent counts requests written, recvd answers read: ticket seq is up when
	// recvd == seq.
	sent, recvd uint64
	err         error // why the connection was given up; set once
}

// ticket is the claim on one answer: request number seq on wire w. Every
// ticket must be redeemed (await), or the answers behind it are never read.
type ticket struct {
	w   *wire
	seq uint64
	// readBy is set when the request went out on an idle wire: the one
	// SetDeadline that covered its write covers the read of its answer too,
	// up to this instant.
	readBy time.Time
}

// failLocked gives a connection up after a transport error: every ticket
// still out on it fails, and the next send dials afresh instead of reusing a
// dead socket.
func (c *Client) failLocked(w *wire, err error) {
	if w.err == nil {
		w.err = err
		w.conn.Close()
		c.turn.Broadcast()
	}
	if c.wire == w {
		c.wire = nil
	}
	delete(c.retired, w)
}

// Addr returns the address the client currently targets (it changes in
// fabric mode as redirects and seed rotation reroute the client).
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// Close closes the request connection and shuts down the coalescer;
// unflushed PublishAsync tuples resolve with ErrClientClosed. Subsequent
// calls fail with ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	if w := c.wire; w != nil {
		c.failLocked(w, ErrClientClosed)
	}
	for w := range c.retired {
		c.failLocked(w, ErrClientClosed)
	}
	c.mu.Unlock()

	c.coMu.Lock()
	done, exited := c.coDone, c.coExited
	c.coDone = nil // mark shut down; PublishAsync rejects from here on
	c.coMu.Unlock()
	if done != nil {
		close(done)
		<-exited
	}
	return nil
}

// deadlineFor combines a relative timeout with the context deadline,
// returning the earlier of the two (zero time = no deadline). Deadlines are
// anchored to the client clock's Now.
func deadlineFor(clock sim.Clock, ctx context.Context, d time.Duration) time.Time {
	var t time.Time
	if d > 0 {
		t = clock.Now().Add(d)
	}
	if cd, ok := ctx.Deadline(); ok && (t.IsZero() || cd.Before(t)) {
		t = cd
	}
	return t
}

// roundTrip sends one request frame, then awaits its response frame,
// decoding the payload via decode (which may be nil).
func (c *Client) roundTrip(ctx context.Context, op byte, payload []byte, decode func(*buf)) error {
	t, err := c.send(ctx, op, payload)
	if err != nil {
		return err
	}
	return c.await(ctx, t, decode)
}

// send puts one request frame on the wire, dialing first if there is no
// connection, and returns the ticket its answer is awaited with. One
// SetDeadline bounds the exchange by the I/O timeout (tightened by ctx's
// deadline); behind other requests in flight it bounds the write only, and
// await arms the read when the ticket's turn comes — as it does when the
// caller comes for the answer with less than half of the bound left.
func (c *Client) send(ctx context.Context, op byte, payload []byte) (ticket, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ticket{}, ErrClientClosed
	}
	if err := ctx.Err(); err != nil {
		return ticket{}, err
	}
	if c.wire == nil {
		if err := c.connectLocked(); err != nil {
			return ticket{}, &transportError{err}
		}
	}
	w := c.wire
	t := ticket{w: w, seq: w.sent}
	if deadline := deadlineFor(c.opt.clock, ctx, c.opt.ioTimeout); w.sent == w.recvd {
		w.conn.SetDeadline(deadline)
		t.readBy = deadline
	} else {
		w.conn.SetWriteDeadline(deadline)
	}
	err := writeFrame(w.w, op, payload)
	if errors.Is(err, errFrameTooLarge) {
		return ticket{}, err // caller error; nothing was written
	}
	if err == nil {
		err = w.w.Flush()
	}
	if err != nil {
		c.failLocked(w, err)
		return ticket{}, &transportError{err}
	}
	w.sent++
	c.obsTxBytes.Add(uint64(frameOverhead + len(payload)))
	return t, nil
}

// await reads the answer to t's request once every answer before it has been
// read. Any connection-level failure — including a response that fails to
// decode, which desyncs the stream — gives the connection up, fails the
// tickets behind this one, and is reported as a transient transportError.
// The end of ctx, whether the ticket is still queued or already reading,
// also gives the connection up, and with it whatever else was in flight on
// it: an answer nobody reads would hold up every answer behind it.
func (c *Client) await(ctx context.Context, t ticket, decode func(*buf)) error {
	w := t.w
	c.mu.Lock()
	if w.recvd != t.seq && ctx.Done() != nil {
		// Queued: the end of ctx wakes the wait, under mu so it cannot be
		// missed between the check and the Wait.
		defer context.AfterFunc(ctx, func() {
			c.mu.Lock()
			c.turn.Broadcast()
			c.mu.Unlock()
		})()
	}
	for w.recvd != t.seq && w.err == nil && ctx.Err() == nil {
		c.turn.Wait()
	}
	if w.recvd != t.seq && w.err == nil {
		c.failLocked(w, context.Cause(ctx)) // ctx ended with answers still due before this one
	}
	err := w.err
	c.mu.Unlock()
	if err != nil {
		return &transportError{err}
	}
	// It is this ticket's turn: until it advances recvd, it alone reads.
	if c.opt.clock.Now().Add(c.opt.ioTimeout / 2).After(t.readBy) {
		// No read deadline from send, or the caller spent most of it
		// elsewhere (a leader waiting for another follower first): an answer
		// that arrived long ago must not fail on a deadline that ran out
		// while nobody was reading.
		w.conn.SetReadDeadline(deadlineFor(c.opt.clock, ctx, c.opt.ioTimeout))
	}
	if ctx.Done() != nil {
		// Interrupt the read when the context ends: a past deadline fails it
		// with a (transient) timeout, and the caller maps it back to
		// ctx.Err(). Armed after the read deadline is set, so that setting
		// cannot undo an interrupt that fires at once.
		stop := context.AfterFunc(ctx, func() { w.conn.SetDeadline(c.opt.clock.Now().Add(-time.Second)) })
		defer func() {
			if !stop() {
				// The interrupt fired and may land after this call: the
				// connection's deadlines are no longer this client's to set.
				c.mu.Lock()
				c.failLocked(w, context.Cause(ctx))
				c.mu.Unlock()
			}
		}()
	}
	status, resp, err := readFrame(w.r)
	if err == nil && status != statusErr && decode != nil {
		d := &buf{b: resp}
		decode(d)
		err = d.err
	}
	c.mu.Lock()
	if err != nil {
		c.failLocked(w, err)
		c.mu.Unlock()
		return &transportError{err}
	}
	w.recvd++
	if _, retired := c.retired[w]; retired && w.recvd == w.sent {
		delete(c.retired, w) // this was the last answer out
		w.conn.Close()
	}
	c.turn.Broadcast()
	c.mu.Unlock()
	c.obsRxBytes.Add(uint64(frameOverhead + len(resp)))
	if status == statusErr {
		return remoteError(resp)
	}
	return nil
}

// call wraps roundTrip with the retry policy: idempotent operations retry
// across transient transport errors with jittered exponential backoff. A
// done context always wins over the transport error it provoked.
//
// In fabric mode a not-leader redirect is routing, not a fault: the client
// follows the embedded leader address immediately, consuming neither a
// retry attempt nor a backoff wait — so a redirect racing a dial failure
// can never fire the backoff timer twice for one fault. Redirects without a
// known leader (an election in progress), fenced publishes, and quorum
// misses are retryable in fabric mode, rotating across the seed list.
func (c *Client) call(ctx context.Context, op byte, payload []byte, idempotent bool, decode func(*buf)) error {
	fabric := c.opt.fabric()
	var last error
	redirects := 0
	for attempt := 0; ; {
		err := c.roundTrip(ctx, op, payload, decode)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		last = err
		if fabric {
			var nl *NotLeaderError
			if errors.As(err, &nl) && nl.LeaderAddr != "" && redirects < c.opt.redirects {
				redirects++
				c.redirectTo(nl.LeaderAddr)
				continue
			}
		}
		retryable := IsTransient(err) ||
			(fabric && (errors.Is(err, ErrNotLeader) || errors.Is(err, ErrEpochFenced)))
		if !idempotent || !retryable {
			return err
		}
		attempt++
		if attempt >= c.opt.attempts {
			return last
		}
		c.obsRetries.Inc()
		if fabric {
			c.rotate()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.opt.clock.After(c.opt.backoff(attempt - 1)):
		}
	}
}

// Ping round-trips an empty frame, verifying the connection (reconnecting if
// needed) without touching any topic.
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, opPing, nil, true, nil)
}

// Publish appends payload to topic on the server and returns its entry ID: a
// batch of one on the batch frame, kept off the Bus interface as a
// convenience for callers holding a *Client.
func (c *Client) Publish(ctx context.Context, topic string, payload []byte) (uint64, error) {
	return c.PublishBatch(ctx, topic, [][]byte{payload})
}

// PublishBatch appends every payload to topic in one wire round-trip,
// returning the ID of the first entry; the batch receives contiguous IDs.
// Against a single broker it is not retried after the request may have been
// sent (that would duplicate the entries), but a failed connection is dropped
// so the next call re-dials. In fabric mode (WithSeeds) publishes ARE retried
// across failover — see options.seeds for the delivery contract. An empty
// batch is a local no-op.
func (c *Client) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	req := getEnc()
	defer putEnc(req)
	req.str(topic).u32(uint32(len(payloads)))
	for _, p := range payloads {
		req.bytes(p)
	}
	var first uint64
	err := c.call(ctx, opPublishBatch, req.b, c.opt.fabric(), func(d *buf) {
		first = d.u64()
		d.u32() // count, echoed for symmetry
	})
	if err != nil {
		return 0, err
	}
	return first, nil
}

// Latest fetches the newest entry of topic.
func (c *Client) Latest(ctx context.Context, topic string) (Entry, error) {
	var e Entry
	err := c.call(ctx, opLatest, (&enc{}).str(topic).b, true, func(d *buf) { e = decodeEntry(d) })
	if err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Range fetches entries with from <= ID <= to (max <= 0 means unlimited).
func (c *Client) Range(ctx context.Context, topic string, from, to uint64, max int) ([]Entry, error) {
	req := (&enc{}).str(topic).u64(from).u64(to).u32(uint32(max))
	var out []Entry
	err := c.call(ctx, opRange, req.b, true, func(d *buf) { out = decodeEntries(d) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Topics lists topic names on the server.
func (c *Client) Topics(ctx context.Context) ([]string, error) {
	var out []string
	err := c.call(ctx, opTopics, nil, true, func(d *buf) {
		n := int(d.u32())
		out = make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, d.str())
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
