package stream

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Follow implements Bus: it opens a dedicated auto-resuming streaming
// connection delivering entries of topic with ID > afterID. The subscription
// is the cursor — its reader goroutine fills the channel, Next empties it from
// the caller's — and the end of ctx closes it.
func (c *Client) Follow(ctx context.Context, topic string, afterID uint64) (Cursor, error) {
	sub, err := newSubscription(c.Addr(), topic, afterID, c.opt)
	if err != nil {
		return nil, err
	}
	context.AfterFunc(ctx, func() {
		sub.setErr(ctx.Err())
		sub.Close()
	})
	return sub, nil
}

// Subscribe is Follow handing back the subscription's channel, which the end
// of ctx closes: a convenience for callers that select on it, kept off the
// Bus interface the way Publish is.
func (c *Client) Subscribe(ctx context.Context, topic string, afterID uint64) (<-chan Entry, error) {
	cur, err := c.Follow(ctx, topic, afterID)
	if err != nil {
		return nil, err
	}
	return cur.(*subscription).ch, nil
}

// subscription is a dedicated streaming connection delivering every entry of
// one topic after a starting ID. The server streams entries in batched
// frames (one frame per wake-up, not per entry), which the subscription
// unpacks in order.
//
// A subscription survives connection loss: on a transient transport error it
// re-dials with capped backoff and re-subscribes from the last delivered
// entry ID, deduplicating anything the server replays, so consumers observe
// an unbroken, strictly-increasing ID stream. It ends only on Close (the end
// of its Follow context) or on an application-level error from the broker
// (e.g. ErrClosed); an outage, however long, is retried.
type subscription struct {
	addr  string
	topic string
	opt   options

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

func newSubscription(addr, topic string, afterID uint64, opt options) (*subscription, error) {
	conn, err := subscribeConn(opt, addr, topic, afterID)
	if err != nil {
		return nil, err
	}
	s := &subscription{
		addr:   addr,
		topic:  topic,
		opt:    opt,
		ch:     make(chan Entry, subscribeSlack),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
		conn:   conn,
	}
	s.last.Store(afterID)
	if r := opt.reg; r != nil {
		s.obsResumes = r.Counter("stream_sub_resumes_total")
		s.obsDedups = r.Counter("stream_sub_dedup_total")
	}
	go s.run()
	return s, nil
}

// subscribeConn dials and sends the subscribe request; stream reads carry no
// deadline (the topic may be idle indefinitely).
func subscribeConn(opt options, addr, topic string, afterID uint64) (net.Conn, error) {
	conn, err := opt.dialer("tcp", addr, opt.dialTimeout)
	if err != nil {
		return nil, &transportError{err}
	}
	conn.SetWriteDeadline(opt.clock.Now().Add(opt.ioTimeout))
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

func (s *subscription) run() {
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
// between attempts until one succeeds. It returns nil when the subscription
// should end. The freshly-dialed connection is adopted under the subscription
// lock so a concurrent Close either closes it itself or is observed here — a
// conn can never be left dangling.
func (s *subscription) resume() net.Conn {
	for attempt := 0; ; attempt++ {
		select {
		case <-s.closed:
			return nil
		case <-s.opt.clock.After(s.opt.backoff(attempt)):
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
func (s *subscription) readStream(conn net.Conn) error {
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

func (s *subscription) currentConn() net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// adoptConn installs a resumed connection unless the subscription was closed
// in the meantime; the check and the install are atomic with respect to
// Close's grab-and-close.
func (s *subscription) adoptConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isClosed() {
		return false
	}
	s.conn = c
	return true
}

func (s *subscription) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

func (s *subscription) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Next implements Cursor: one blocking receive, then whatever else already
// sits in the channel. Once the subscription has ended it returns what ended
// it.
func (s *subscription) Next() ([]Entry, error) {
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

// Err returns the terminal error, if any, after the channel closes. It is nil
// when the subscription was ended by Close, and the context's error when the
// end of a Follow or Subscribe context ended it.
func (s *subscription) Err() error {
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
func (s *subscription) Close() error {
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
