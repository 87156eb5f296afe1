package stream

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Server exposes a Broker over TCP using the wire protocol in wire.go. Each
// connection answers its requests one at a time, in the order they arrived (a
// client may have several on the wire), on the one goroutine that reads them;
// Subscribe turns the connection into a one-way entry stream, written by a
// goroutine of its own.
type Server struct {
	broker *Broker
	fabric atomic.Pointer[FabricNode]
	ln     net.Listener
	// wrap, if set, decorates every accepted connection: the package's tests
	// set it to inject server-side faults.
	wrap func(net.Conn) net.Conn

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Optional obs instruments (nil-safe no-ops when not set).
	obsConns      *obs.Gauge   // connections currently open
	obsConnsTotal *obs.Counter // connections accepted since start
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// SetFabric attaches (or swaps) the fabric node: publishes then go through
// it (leader-lease check + quorum replication instead of a bare local append)
// and the fabric ops — topology, replication status, the lease proxy — are
// enabled. Reads still go to the local replica. It is set after the server is
// listening because a deployment that binds ":0" only learns its advertised
// address, and can only build the fabric node, once the listener is up.
func (s *Server) SetFabric(n *FabricNode) { s.fabric.Store(n) }

// WithServerObs registers the server's connection instruments on r:
// stream_server_conns (gauge of open connections) and
// stream_server_conns_total (accepted connections).
func WithServerObs(r *obs.Registry) ServerOption {
	return func(s *Server) {
		s.obsConns = r.Gauge("stream_server_conns")
		s.obsConnsTotal = r.Counter("stream_server_conns_total")
	}
}

// Serve starts a server for broker on addr ("host:port"; ":0" picks a free
// port). It returns once the listener is active.
func Serve(broker *Broker, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{broker: broker, ln: ln, conns: make(map[net.Conn]struct{})}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.wrap != nil {
			conn = s.wrap(conn)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.obsConnsTotal.Inc()
		s.obsConns.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	_, tracked := s.conns[conn]
	delete(s.conns, conn)
	s.mu.Unlock()
	if tracked {
		s.obsConns.Add(-1)
	}
	conn.Close()
}

// handle serves one connection from its own goroutine, which reads each
// request and answers it in place, from a frame buffer it reuses (the
// handlers copy what they keep): answers leave whole and in request order,
// and a replicate frame costs its follower no goroutine hop. Every op but
// Subscribe is bounded by this node — a lease or status op by a coordinator
// call, a publish on a fabric node by its followers' deadlines — so nothing
// parks the connection; Subscribe hands it to serveSubscribe for good.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	out := getEnc() // response builder, reused across this conn's requests
	defer putEnc(out)
	var payload []byte
	for {
		op, n, err := readHeader(r)
		if err != nil {
			return // connection closed or corrupt
		}
		if payload, err = readPayload(r, payload, n); err != nil {
			return
		}
		if op == opSubscribe {
			s.serveSubscribe(conn, r, w, payload)
			return
		}
		out.b = out.b[:0]
		err = s.dispatch(context.Background(), op, payload, out)
		status, resp := byte(statusOK), out.b
		if err != nil {
			status, resp = statusErr, errPayload(err)
		}
		if writeFrame(w, status, resp) != nil || w.Flush() != nil {
			return
		}
		if cap(payload) > maxPooledEnc {
			payload = nil // one large frame does not pin its buffer for good
		}
	}
}

// publisher is the write path requests go through: the fabric node (which
// enforces leadership and replicates) when the server is part of a fabric,
// the bare local broker otherwise.
func (s *Server) publisher() Publisher {
	if f := s.fabric.Load(); f != nil {
		return f
	}
	return s.broker
}

// dispatch executes one request, appending the response payload to out.
func (s *Server) dispatch(ctx context.Context, op byte, payload []byte, out *enc) error {
	d := &buf{b: payload}
	switch op {
	case opPublishBatch:
		topic := d.str()
		n := int(d.u32())
		if d.err == nil && len(d.b)-d.pos < 4*n {
			d.fail() // every payload costs at least its length prefix
		}
		if d.err != nil {
			return d.err
		}
		// The payloads are views of the request frame; the broker copies
		// each into the topic log, and the fabric node encodes them for its
		// followers, before PublishBatch returns.
		payloads := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			payloads = append(payloads, d.bytes())
			if d.err != nil {
				return d.err
			}
		}
		first, err := s.publisher().PublishBatch(ctx, topic, payloads)
		if err != nil {
			return err
		}
		out.u64(first).u32(uint32(n))
		return nil

	case opLatest:
		topic := d.str()
		if d.err != nil {
			return d.err
		}
		e, err := s.broker.Latest(ctx, topic)
		if err != nil {
			return err
		}
		encodeEntry(out, e)
		return nil

	case opRange:
		topic := d.str()
		from, to := d.u64(), d.u64()
		max := int(d.u32())
		if d.err != nil {
			return d.err
		}
		entries, err := s.broker.Range(ctx, topic, from, to, max)
		if err != nil {
			return err
		}
		encodeEntries(out, entries)
		return nil

	case opTopics:
		names := s.broker.Topics()
		out.u32(uint32(len(names)))
		for _, n := range names {
			out.str(n)
		}
		return nil

	case opPing:
		return nil

	case opReplicate:
		topic := d.str()
		epoch := d.u64()
		entries := decodeEntries(d)
		if d.err != nil {
			return d.err
		}
		// entries view the request frame; ReplicateAppend copies what it keeps.
		tail, err := s.broker.ReplicateAppend(ctx, topic, epoch, entries)
		code := byte(replOK)
		switch {
		case errors.Is(err, ErrEpochFenced):
			code = replFenced
		case errors.Is(err, ErrReplicaGap):
			code = replGap
		case err != nil:
			return err
		}
		// The fencing/gap outcomes ride a statusOK frame with a result code
		// so the follower's tail ID reaches the leader (a statusErr frame
		// carries only the message, and backfill needs the tail).
		out.u8(code).u64(tail)
		return nil

	case opTopicTail:
		topic := d.str()
		if d.err != nil {
			return d.err
		}
		epoch, last, err := s.broker.TopicTail(ctx, topic)
		if err != nil {
			return err
		}
		out.u64(epoch).u64(last)
		return nil

	case opTopology:
		f := s.fabric.Load()
		if f == nil {
			return errNotFabric
		}
		nodes := f.Topology()
		out.u32(uint32(len(nodes)))
		for _, n := range nodes {
			out.str(n.ID).str(n.Addr)
		}
		return nil

	case opReplStatus:
		f := s.fabric.Load()
		if f == nil {
			return errNotFabric
		}
		statuses := f.Status()
		out.u32(uint32(len(statuses)))
		for _, st := range statuses {
			isLeader := byte(0)
			if st.IsLeader {
				isLeader = 1
			}
			out.str(st.Topic).u64(st.Epoch).str(st.Leader)
			out.u8(isLeader).u64(st.Lag)
		}
		return nil

	case opLeaseHolder:
		topic := d.str()
		if d.err != nil {
			return d.err
		}
		f := s.fabric.Load()
		if f == nil {
			return errNotFabric
		}
		l, ok := f.Leases().Holder(topic)
		encodeLeaseResult(out, l, ok)
		return nil

	case opLeaseAcquire:
		topic, node := d.str(), d.str()
		if d.err != nil {
			return d.err
		}
		f := s.fabric.Load()
		if f == nil {
			return errNotFabric
		}
		l, ok := f.Leases().Acquire(topic, node)
		encodeLeaseResult(out, l, ok)
		return nil

	case opLeaseRenew:
		topic, node := d.str(), d.str()
		epoch := d.u64()
		if d.err != nil {
			return d.err
		}
		f := s.fabric.Load()
		if f == nil {
			return errNotFabric
		}
		l, ok := f.Leases().Renew(topic, node, epoch)
		encodeLeaseResult(out, l, ok)
		return nil

	default:
		return errors.New("stream: unknown opcode")
	}
}

// errNotFabric rejects fabric-only ops on a standalone server.
var errNotFabric = errors.New("stream: not a fabric node")

func encodeLeaseResult(out *enc, l cluster.Lease, ok bool) {
	flag := byte(0)
	if ok {
		flag = 1
	}
	out.u8(flag)
	encodeLease(out, l)
}

// serveSubscribe turns the connection into a one-way entry stream until
// either end drops it. A goroutine of its own writes the stream while the
// handler's goroutine keeps reading the connection, so that a client hangup
// cancels ctx and unparks the cursor.
func (s *Server) serveSubscribe(conn net.Conn, r *bufio.Reader, w *bufio.Writer, payload []byte) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := &buf{b: payload}
	topic, after := d.str(), d.u64()
	var cur Cursor
	if d.err == nil {
		cur, d.err = s.broker.Follow(ctx, topic, after)
	}
	if d.err != nil {
		writeFrame(w, statusErr, errPayload(d.err))
		w.Flush()
		return
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		defer conn.Close() // a stream that ended ends the watch below
		writeStream(w, cur)
	}()
	io.Copy(io.Discard, r) // a subscribed client sends nothing more
	cancel()
	<-written
}

// writeStream writes what cur hands out until the cursor or the connection
// fails, ending with an error frame when it is the cursor. Each wake-up
// drains up to a full run into one frame, so a burst of publishes costs one
// syscall on the wire instead of one per entry.
func writeStream(w *bufio.Writer, cur Cursor) {
	out := getEnc()
	defer putEnc(out)
	for {
		entries, err := cur.Next()
		if err != nil {
			writeFrame(w, statusErr, errPayload(err))
			w.Flush()
			return
		}
		out.b = out.b[:0]
		encodeEntries(out, entries)
		if writeFrame(w, statusOK, out.b) != nil || w.Flush() != nil {
			return
		}
	}
}
