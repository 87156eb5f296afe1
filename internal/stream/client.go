package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrClientClosed is returned by operations on a Close()d client.
var ErrClientClosed = errors.New("stream: client closed")

// Dialer abstracts connection establishment so fault injection (Chaos) and
// alternative transports can be plugged into Client and Subscribe.
type Dialer interface {
	Dial(network, addr string, timeout time.Duration) (net.Conn, error)
}

// netDialer is the default Dialer: net.Dialer with a timeout.
type netDialer struct{}

func (netDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	return (&net.Dialer{Timeout: timeout}).Dial(network, addr)
}

// Options tune the fault-tolerance behaviour of Client and Subscription.
type Options struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each frame write and each non-blocking frame read
	// (default 10s). Blocking reads (ConsumeBatch, Subscription streams)
	// have no read deadline: they legitimately wait for data. A context
	// deadline tightens either bound.
	IOTimeout time.Duration
	// RetryMax is the attempt budget for idempotent operations across
	// transient transport errors (default 4; minimum 1).
	RetryMax int
	// BackoffMin/BackoffMax bound the jittered exponential backoff between
	// reconnect attempts (defaults 50ms / 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// ResumeMax caps Subscription auto-resume attempts per outage
	// (0 = retry until Close).
	ResumeMax int
	// CoalesceMaxBatch caps how many PublishAsync tuples one group-commit
	// flush carries (default 64).
	CoalesceMaxBatch int
	// CoalesceMaxDelay bounds how long the first queued PublishAsync tuple
	// waits before its batch is flushed (default 2ms).
	CoalesceMaxDelay time.Duration
	// Dialer establishes connections (default: net.Dialer).
	Dialer Dialer
	// Clock drives backoff waits, I/O deadlines, and the coalescer timer
	// (default: the wall clock). Inject a *sim.Virtual to run reconnect and
	// group-commit behavior on deterministic virtual time; note that socket
	// deadlines are then anchored to virtual Now, so virtual clocks pair
	// with in-process transports or virtual-time-aware harnesses.
	Clock sim.Clock
	// Rand, if non-nil, is the seeded source for backoff jitter (default:
	// the global math/rand source). With a fixed seed the retry/resume
	// schedule is bit-reproducible; the client serializes access, so one
	// source may be shared by the client and its subscriptions.
	Rand *rand.Rand
	// Obs, if non-nil, receives the client/subscription instruments
	// (reconnects, retries, frame bytes, resumes, dedups, coalesce latency).
	Obs *obs.Registry
	// Seeds are fabric contact addresses. Setting any (WithSeeds) puts the
	// client in fabric mode: not-leader redirects are followed to the
	// embedded leader address, transient faults rotate the client across the
	// seed list, and publishes ARE retried across failover — delivery
	// becomes at-least-once (a batch whose ack was lost may be re-appended
	// under new IDs) while acks stay at-most-once.
	Seeds []string
	// MaxRedirects bounds how many not-leader redirects one call follows
	// (default 4); past it the redirect is handled as a retryable fault.
	MaxRedirects int

	// rng wraps Rand with a mutex; built by defaults().
	rng *lockedRand
}

func (o *Options) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.RetryMax < 1 {
		o.RetryMax = 4
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.CoalesceMaxBatch < 1 {
		o.CoalesceMaxBatch = 64
	}
	if o.CoalesceMaxDelay <= 0 {
		o.CoalesceMaxDelay = 2 * time.Millisecond
	}
	if o.Dialer == nil {
		o.Dialer = netDialer{}
	}
	if o.MaxRedirects <= 0 {
		o.MaxRedirects = 4
	}
	o.Clock = sim.Or(o.Clock)
	if o.Rand != nil && o.rng == nil {
		o.rng = &lockedRand{r: o.Rand}
	}
}

// fabric reports whether the client targets a replicated fabric (seeds set).
func (o *Options) fabric() bool { return len(o.Seeds) > 0 }

// backoff draws the jittered delay for a retry attempt from the injected
// seeded source, or the global one.
func (o *Options) backoff(attempt int) time.Duration {
	if o.rng != nil {
		return BackoffRand(o.rng, attempt, o.BackoffMin, o.BackoffMax)
	}
	return Backoff(attempt, o.BackoffMin, o.BackoffMax)
}

// lockedRand serializes a rand.Rand shared by a client and its
// subscriptions' resume loops.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// Int63n implements Rand63.
func (l *lockedRand) Int63n(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63n(n)
}

// Option customizes a Client or Subscription.
type Option func(*Options)

// WithCoalesce tunes the PublishAsync group-commit coalescer: a batch is
// flushed when it reaches maxBatch tuples or when the oldest queued tuple
// has waited maxDelay, whichever comes first.
func WithCoalesce(maxBatch int, maxDelay time.Duration) Option {
	return func(o *Options) { o.CoalesceMaxBatch, o.CoalesceMaxDelay = maxBatch, maxDelay }
}

// WithDialer plugs in a custom Dialer (e.g. a Chaos fault injector).
func WithDialer(d Dialer) Option { return func(o *Options) { o.Dialer = d } }

// WithClock injects the clock driving backoff waits, I/O deadlines, and the
// coalescer timer (see Options.Clock).
func WithClock(c sim.Clock) Option { return func(o *Options) { o.Clock = c } }

// WithRand injects a seeded jitter source so the retry/resume backoff
// schedule is bit-reproducible under a fixed seed (see Options.Rand).
func WithRand(r *rand.Rand) Option { return func(o *Options) { o.Rand = r } }

// WithObs registers the client's (or subscription's) instruments on r.
func WithObs(r *obs.Registry) Option { return func(o *Options) { o.Obs = r } }

// WithSeeds enables fabric mode with the given contact addresses (see
// Options.Seeds); the dialed address is added to the list if absent.
func WithSeeds(addrs ...string) Option {
	return func(o *Options) { o.Seeds = append(o.Seeds, addrs...) }
}

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	o.defaults()
	return o
}

// Rand63 is the jitter-source surface Backoff needs; *rand.Rand and the
// client's internal locked wrapper both satisfy it.
type Rand63 interface {
	Int63n(n int64) int64
}

// globalRand adapts the package-level math/rand source to Rand63.
type globalRand struct{}

func (globalRand) Int63n(n int64) int64 { return rand.Int63n(n) }

// Backoff returns the jittered exponential delay for a retry attempt
// (0-based): uniformly drawn from [d/2, d] where d = min<<attempt, capped at
// max. Exported so other layers (archiver, vertices) share the policy. The
// jitter comes from the global math/rand source; use BackoffRand with a
// seeded source for reproducible schedules.
func Backoff(attempt int, min, max time.Duration) time.Duration {
	return BackoffRand(globalRand{}, attempt, min, max)
}

// BackoffRand is Backoff drawing its jitter from rng, so a seeded source
// replays the exact delay sequence.
func BackoffRand(rng Rand63, attempt int, min, max time.Duration) time.Duration {
	if min <= 0 {
		min = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
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
// requests over a single connection, which answers them in order; Subscribe
// opens its own dedicated connection. Client is safe for concurrent use and
// satisfies the Bus interface, so a vertex can run against a remote broker
// unchanged.
//
// Every frame is written and (for non-blocking ops) read under a deadline;
// a context deadline tightens it and a context cancellation interrupts even
// blocking reads. On any transport error the connection is dropped and
// lazily re-established by the next call; read-only operations (Latest,
// Range, Topics, ConsumeBatch, Ping) additionally retry across transient
// errors with capped exponential backoff. The mutating operation,
// PublishBatch, is never retried after the request may have been sent, so it
// cannot be duplicated; callers that need delivery guarantees buffer and
// re-publish (see score's store-and-forward BufferedPublisher).
type Client struct {
	addr string
	opt  Options

	mu        sync.Mutex
	turn      sync.Cond          // on mu: a wire's recvd advanced, or the wire failed
	wire      *wire              // the connection new requests go out on; nil until dialed
	retired   map[*wire]struct{} // connections redirected away from, answers still due
	connected bool               // a connection was established before (the next is a reconnect)
	closed    bool
	seedIdx   int // index into opt.Seeds of the current address (fabric mode)

	// Group-commit coalescer state (lazily started by PublishAsync).
	coMu     sync.Mutex
	coCh     chan pendingPub
	coDone   chan struct{}
	coExited chan struct{}

	// Obs instruments, registered at Dial when Options.Obs is set
	// (nil-safe no-ops otherwise).
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
	if c.opt.fabric() {
		c.seedIdx = -1
		for i, s := range c.opt.Seeds {
			if s == addr {
				c.seedIdx = i
				break
			}
		}
		if c.seedIdx < 0 {
			c.opt.Seeds = append([]string{addr}, c.opt.Seeds...)
			c.seedIdx = 0
		}
	}
	if r := c.opt.Obs; r != nil {
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
	for i := 1; err != nil && c.opt.fabric() && i < len(c.opt.Seeds); i++ {
		c.seedIdx = (c.seedIdx + 1) % len(c.opt.Seeds)
		c.addr = c.opt.Seeds[c.seedIdx]
		err = c.connectLocked()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connectLocked() error {
	conn, err := c.opt.Dialer.Dial("tcp", c.addr, c.opt.DialTimeout)
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

// retireLocked takes the current connection out of service without failing
// the requests in flight on it (they may belong to other callers): they read
// their answers, and the last one out closes it.
func (c *Client) retireLocked() {
	w := c.wire
	if w == nil {
		return
	}
	c.wire = nil
	if w.sent == w.recvd {
		w.conn.Close()
		return
	}
	if c.retired == nil {
		c.retired = make(map[*wire]struct{})
	}
	c.retired[w] = struct{}{}
}

// redirectTo switches the client to a leader address learned from a
// not-leader redirect, retiring the current connection so the next
// round-trip dials the leader.
func (c *Client) redirectTo(addr string) {
	c.obsRedirects.Inc()
	c.mu.Lock()
	if addr != c.addr {
		c.addr = addr
		c.retireLocked()
	}
	c.mu.Unlock()
}

// rotate advances to the next seed address (fabric mode) after a retryable
// fault: the current address may be the dead leader.
func (c *Client) rotate() {
	c.mu.Lock()
	if len(c.opt.Seeds) > 1 {
		c.seedIdx = (c.seedIdx + 1) % len(c.opt.Seeds)
		if c.opt.Seeds[c.seedIdx] == c.addr {
			c.seedIdx = (c.seedIdx + 1) % len(c.opt.Seeds)
		}
		c.addr = c.opt.Seeds[c.seedIdx]
		c.retireLocked()
	}
	c.mu.Unlock()
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
// anchored to the injected clock's Now.
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
func (c *Client) roundTrip(ctx context.Context, op byte, payload []byte, blocking bool, decode func(*buf)) error {
	t, err := c.send(ctx, op, payload)
	if err != nil {
		return err
	}
	return c.await(ctx, t, blocking, decode)
}

// send puts one request frame on the wire, dialing first if there is no
// connection, and returns the ticket its answer is awaited with. One
// SetDeadline bounds the exchange by IOTimeout (tightened by ctx's deadline);
// behind other requests in flight it bounds the write only, and await arms
// the read when the ticket's turn comes — as it does when the caller comes
// for the answer with less than half of the bound left.
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
	if deadline := deadlineFor(c.opt.Clock, ctx, c.opt.IOTimeout); w.sent == w.recvd {
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
// tickets behind this one, and is reported as a transient transportError. A
// blocking answer is read without the IOTimeout bound. Cancelling ctx forces
// a past deadline so even a blocking read returns promptly; that costs the
// connection, and with it whatever else was in flight on it.
func (c *Client) await(ctx context.Context, t ticket, blocking bool, decode func(*buf)) error {
	w := t.w
	c.mu.Lock()
	for w.recvd != t.seq && w.err == nil {
		c.turn.Wait()
	}
	err := w.err
	c.mu.Unlock()
	if err != nil {
		return &transportError{err}
	}
	// It is this ticket's turn: until it advances recvd, it alone reads.
	if ctx.Done() != nil {
		// Interrupt the read when the context ends: a past deadline fails it
		// with a (transient) timeout, and the caller maps it back to
		// ctx.Err().
		stop := context.AfterFunc(ctx, func() { w.conn.SetDeadline(c.opt.Clock.Now().Add(-time.Second)) })
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
	if blocking {
		w.conn.SetReadDeadline(deadlineFor(c.opt.Clock, ctx, 0))
	} else if c.opt.Clock.Now().Add(c.opt.IOTimeout / 2).After(t.readBy) {
		// No read deadline from send, or the caller spent most of it
		// elsewhere (a leader waiting for another follower first): an answer
		// that arrived long ago must not fail on a deadline that ran out
		// while nobody was reading.
		w.conn.SetReadDeadline(deadlineFor(c.opt.Clock, ctx, c.opt.IOTimeout))
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
func (c *Client) call(ctx context.Context, op byte, payload []byte, idempotent, blocking bool, decode func(*buf)) error {
	fabric := c.opt.fabric()
	var last error
	redirects := 0
	for attempt := 0; ; {
		err := c.roundTrip(ctx, op, payload, blocking, decode)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		last = err
		if fabric {
			var nl *NotLeaderError
			if errors.As(err, &nl) && nl.LeaderAddr != "" && redirects < c.opt.MaxRedirects {
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
		if attempt >= c.opt.RetryMax {
			return last
		}
		c.obsRetries.Inc()
		if fabric {
			c.rotate()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.opt.Clock.After(c.opt.backoff(attempt - 1)):
		}
	}
}

// Ping round-trips an empty frame, verifying the connection (reconnecting if
// needed) without touching any topic.
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, opPing, nil, true, false, nil)
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
// across failover — see Options.Seeds for the delivery contract. An empty
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
	err := c.call(ctx, opPublishBatch, req.b, c.opt.fabric(), false, func(d *buf) {
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
	err := c.call(ctx, opLatest, (&enc{}).str(topic).b, true, false, func(d *buf) { e = decodeEntry(d) })
	if err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Range fetches entries with from <= ID <= to (max <= 0 means unlimited).
func (c *Client) Range(ctx context.Context, topic string, from, to uint64, max int) ([]Entry, error) {
	req := (&enc{}).str(topic).u64(from).u64(to).u32(uint32(max))
	var out []Entry
	err := c.call(ctx, opRange, req.b, true, false, func(d *buf) {
		n := int(d.u32())
		out = make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, decodeEntry(d))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ConsumeBatch blocks server-side until at least one entry newer than
// afterID exists, then returns up to max of them in one frame (max <= 0:
// everything available). It is read-only and retried across transient
// transport errors.
func (c *Client) ConsumeBatch(ctx context.Context, topic string, afterID uint64, max int) ([]Entry, error) {
	req := getEnc()
	defer putEnc(req)
	req.str(topic).u64(afterID).u32(uint32(max))
	var out []Entry
	err := c.call(ctx, opConsumeBatch, req.b, true, true, func(d *buf) { out = decodeEntries(d) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Topics lists topic names on the server.
func (c *Client) Topics(ctx context.Context) ([]string, error) {
	var out []string
	err := c.call(ctx, opTopics, nil, true, false, func(d *buf) {
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

// Follow implements Bus: it opens a dedicated auto-resuming streaming
// connection delivering entries of topic with ID > afterID. The Subscription
// is the cursor — its reader goroutine fills the channel, Next empties it from
// the caller's — and the end of ctx closes it.
func (c *Client) Follow(ctx context.Context, topic string, afterID uint64) (Cursor, error) {
	sub, err := subscribeOpt(c.Addr(), topic, afterID, c.opt)
	if err != nil {
		return nil, err
	}
	context.AfterFunc(ctx, func() {
		sub.setErr(ctx.Err())
		sub.Close()
	})
	return sub, nil
}

// Subscribe is Follow handing back the Subscription's channel, which the end
// of ctx closes: a convenience for callers that select on it, kept off the
// Bus interface the way Publish is.
func (c *Client) Subscribe(ctx context.Context, topic string, afterID uint64) (<-chan Entry, error) {
	cur, err := c.Follow(ctx, topic, afterID)
	if err != nil {
		return nil, err
	}
	return cur.(*Subscription).ch, nil
}

// PublishResult resolves one PublishAsync call: the assigned entry ID, or
// the error that failed its batch.
type PublishResult struct {
	ID  uint64
	Err error
}

// pendingPub is one queued tuple awaiting a group-commit flush.
type pendingPub struct {
	topic   string
	payload []byte
	queued  time.Time
	done    chan PublishResult
}

// PublishAsync queues payload for a group-commit flush and returns a
// 1-buffered channel that resolves with the assigned ID (or error) once its
// batch lands. Tuples are coalesced into PublishBatch frames of up to
// Options.CoalesceMaxBatch entries, flushed at the latest after
// Options.CoalesceMaxDelay — amortizing the per-frame round-trip across the
// batch while bounding added latency. The payload is copied, so the caller
// may reuse its buffer. Queue-order is flush-order, so one topic's tuples
// keep their relative order.
func (c *Client) PublishAsync(ctx context.Context, topic string, payload []byte) <-chan PublishResult {
	done := make(chan PublishResult, 1)
	if len(payload) == 0 {
		done <- PublishResult{Err: ErrEmptyPayload}
		return done
	}
	p := pendingPub{topic: topic, payload: append([]byte(nil), payload...), queued: c.opt.Clock.Now(), done: done}

	c.coMu.Lock()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		c.coMu.Unlock()
		done <- PublishResult{Err: ErrClientClosed}
		return done
	}
	if c.coCh == nil {
		c.coCh = make(chan pendingPub, 4*c.opt.CoalesceMaxBatch)
		c.coDone = make(chan struct{})
		c.coExited = make(chan struct{})
		go c.coalesceLoop(c.coCh, c.coDone, c.coExited)
	}
	ch, stop := c.coCh, c.coDone
	c.coMu.Unlock()
	if stop == nil { // Close already ran
		done <- PublishResult{Err: ErrClientClosed}
		return done
	}

	select {
	case ch <- p:
	case <-stop:
		done <- PublishResult{Err: ErrClientClosed}
	case <-ctx.Done():
		done <- PublishResult{Err: ctx.Err()}
	}
	return done
}

// coalesceLoop is the bounded flush loop behind PublishAsync: it accumulates
// tuples and flushes when the batch is full or the oldest tuple has waited
// CoalesceMaxDelay.
func (c *Client) coalesceLoop(in <-chan pendingPub, stop <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	var pending []pendingPub
	timer := c.opt.Clock.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	flush := func() {
		if armed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
		c.flushPending(pending)
		pending = pending[:0]
	}
	for {
		select {
		case p := <-in:
			pending = append(pending, p)
			if len(pending) == 1 {
				timer.Reset(c.opt.CoalesceMaxDelay)
				armed = true
			}
			if len(pending) >= c.opt.CoalesceMaxBatch {
				flush()
			}
		case <-timer.C:
			armed = false
			c.flushPending(pending)
			pending = pending[:0]
		case <-stop:
			// Resolve everything still queued: the connection is gone.
			for {
				select {
				case p := <-in:
					pending = append(pending, p)
					continue
				default:
				}
				break
			}
			for _, p := range pending {
				p.done <- PublishResult{Err: ErrClientClosed}
			}
			return
		}
	}
}

// flushPending group-commits queued tuples: consecutive same-topic runs
// become one PublishBatch each, and every tuple resolves with its assigned
// ID (first + offset, IDs being contiguous per batch) or the batch error.
func (c *Client) flushPending(pending []pendingPub) {
	for start := 0; start < len(pending); {
		end := start + 1
		for end < len(pending) && pending[end].topic == pending[start].topic {
			end++
		}
		run := pending[start:end]
		payloads := make([][]byte, len(run))
		for i, p := range run {
			payloads[i] = p.payload
		}
		first, err := c.PublishBatch(context.Background(), run[0].topic, payloads)
		now := c.opt.Clock.Now()
		for i, p := range run {
			if err != nil {
				p.done <- PublishResult{Err: err}
			} else {
				p.done <- PublishResult{ID: first + uint64(i)}
			}
			c.obsCoalesce.ObserveDuration(now.Sub(p.queued))
		}
		c.obsBatchSize.Observe(float64(len(run)))
		start = end
	}
}

// Subscription is a dedicated streaming connection delivering every entry of
// one topic after a starting ID. The server streams entries in batched
// frames (one frame per wake-up, not per entry), which the subscription
// unpacks in order.
//
// A Subscription survives connection loss: on a transient transport error it
// re-dials with capped backoff and re-subscribes from the last delivered
// entry ID, deduplicating anything the server replays, so consumers observe
// an unbroken, strictly-increasing ID stream. It ends only on Close, on an
// application-level error from the broker (e.g. ErrClosed), or when
// Options.ResumeMax attempts are exhausted during one outage.
type Subscription struct {
	addr  string
	topic string
	opt   Options

	ch     chan Entry
	batch  []Entry       // what Next hands out
	closed chan struct{} // closed by Close; aborts delivery and resume waits
	done   chan struct{} // closed when the run loop exits
	once   sync.Once

	mu   sync.Mutex
	conn net.Conn
	err  error

	last atomic.Uint64 // last delivered entry ID

	obsResumes *obs.Counter
	obsDedups  *obs.Counter
}

// Subscribe opens a dedicated connection that streams entries of topic with
// ID > afterID into the returned Subscription's channel.
func Subscribe(addr, topic string, afterID uint64, opts ...Option) (*Subscription, error) {
	return subscribeOpt(addr, topic, afterID, buildOptions(opts))
}

func subscribeOpt(addr, topic string, afterID uint64, opt Options) (*Subscription, error) {
	conn, err := subscribeConn(opt, addr, topic, afterID)
	if err != nil {
		return nil, err
	}
	s := &Subscription{
		addr:   addr,
		topic:  topic,
		opt:    opt,
		ch:     make(chan Entry, subscribeSlack),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
		conn:   conn,
	}
	s.last.Store(afterID)
	if r := opt.Obs; r != nil {
		s.obsResumes = r.Counter("stream_sub_resumes_total")
		s.obsDedups = r.Counter("stream_sub_dedup_total")
	}
	go s.run()
	return s, nil
}

// subscribeConn dials and sends the subscribe request; stream reads carry no
// deadline (the topic may be idle indefinitely).
func subscribeConn(opt Options, addr, topic string, afterID uint64) (net.Conn, error) {
	conn, err := opt.Dialer.Dial("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, &transportError{err}
	}
	if opt.IOTimeout > 0 {
		conn.SetWriteDeadline(opt.Clock.Now().Add(opt.IOTimeout))
	}
	w := bufio.NewWriter(conn)
	req := (&enc{}).str(topic).u64(afterID)
	err = writeFrame(w, opSubscribe, req.b)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, &transportError{err}
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

func (s *Subscription) run() {
	defer close(s.done)
	defer close(s.ch)
	conn := s.currentConn()
	for {
		err := s.readStream(conn)
		if conn != nil {
			conn.Close()
		}
		if err == nil || s.isClosed() {
			return
		}
		if !IsTransient(err) {
			s.setErr(err)
			return
		}
		conn = s.resume()
		if conn == nil {
			return
		}
	}
}

// resume re-dials and re-subscribes from the last delivered ID, backing off
// between attempts. It returns nil when the subscription should end. The
// freshly-dialed connection is adopted under the subscription lock so a
// concurrent Close either closes it itself or is observed here — a conn can
// never be left dangling.
func (s *Subscription) resume() net.Conn {
	for attempt := 0; ; attempt++ {
		if s.opt.ResumeMax > 0 && attempt >= s.opt.ResumeMax {
			s.setErr(fmt.Errorf("stream: subscription resume: %d attempts exhausted", attempt))
			return nil
		}
		select {
		case <-s.closed:
			return nil
		case <-s.opt.Clock.After(s.opt.backoff(attempt)):
		}
		conn, err := subscribeConn(s.opt, s.addr, s.topic, s.last.Load())
		if err != nil {
			if !IsTransient(err) {
				s.setErr(err)
				return nil
			}
			continue
		}
		if !s.adoptConn(conn) { // Close won the race
			conn.Close()
			return nil
		}
		s.obsResumes.Inc()
		return conn
	}
}

// readStream delivers entries from one connection until it fails or the
// subscription closes (nil return). Each frame carries a batch of entries;
// entries at or below the last delivered ID — replays after a resume — are
// dropped.
func (s *Subscription) readStream(conn net.Conn) error {
	if conn == nil {
		return nil // Close raced subscription start
	}
	r := bufio.NewReader(conn)
	for {
		status, payload, err := readFrame(r)
		if err != nil {
			return &transportError{err}
		}
		if status == statusErr {
			return remoteError(payload)
		}
		d := &buf{b: payload}
		entries := decodeEntries(d)
		if d.err != nil {
			return &transportError{d.err}
		}
		for _, e := range entries {
			if e.ID <= s.last.Load() {
				s.obsDedups.Inc()
				continue
			}
			select {
			case s.ch <- e:
				s.last.Store(e.ID)
			case <-s.closed:
				return nil
			}
		}
	}
}

func (s *Subscription) currentConn() net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// adoptConn installs a resumed connection unless the subscription was closed
// in the meantime; the check and the install are atomic with respect to
// Close's grab-and-close.
func (s *Subscription) adoptConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isClosed() {
		return false
	}
	s.conn = c
	return true
}

func (s *Subscription) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

func (s *Subscription) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// C returns the delivery channel; it closes when the subscription ends.
func (s *Subscription) C() <-chan Entry { return s.ch }

// Next implements Cursor, for a consumer that reads runs instead of C: one
// blocking receive, then whatever else already sits in the channel. Once the
// subscription has ended it returns what ended it.
func (s *Subscription) Next() ([]Entry, error) {
	e, ok := <-s.ch
	if !ok {
		if err := s.Err(); err != nil {
			return nil, err
		}
		return nil, ErrClosed
	}
	s.batch = append(s.batch[:0], e)
	for n := min(len(s.ch), subscribeSlack-1); n > 0; n-- {
		if e, ok = <-s.ch; !ok { // closed, and Close took what was buffered
			break
		}
		s.batch = append(s.batch, e)
	}
	return s.batch, nil
}

// Err returns the terminal error, if any, after C closes. It is nil when the
// subscription was ended by Close, and the context's error when the end of a
// Client.Follow or Client.Subscribe context ended it.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(s.err, net.ErrClosed) {
		return nil // closed by us
	}
	return s.err
}

// Close terminates the subscription. It returns once the reader goroutine
// has exited, even if the consumer abandoned the channel without draining.
// The current connection is grabbed and nil'd under the lock so a racing
// resume cannot install one that nobody closes.
func (s *Subscription) Close() error {
	s.once.Do(func() { close(s.closed) })
	s.mu.Lock()
	c := s.conn
	s.conn = nil
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
	<-s.done
	for range s.ch { // drain anything buffered before close(s.ch)
	}
	return nil
}
