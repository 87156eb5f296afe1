package gateway

import (
	"context"
	"sync"
	"sync/atomic"

	apiv1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// hub owns the live fan-out: one broadcaster per subscribed topic. A topic's
// first subscriber starts one upstream bus cursor and its last one cancels
// it. The broadcaster decodes each entry once, encodes it once into its JSON
// body, and appends the shared immutable frame to a ring of QueueSize slots;
// a Subscriber is a cursor into that ring plus a wake-up, and its transport
// handler frames the shared body as it writes it. The append never waits for
// a reader — that is the backpressure contract of the public edge:
// well-behaved clients see every tuple in order, and one whose cursor falls
// QueueSize frames behind the live tail is evicted with a slow_consumer frame.
type hub struct {
	backend   Backend
	queueSize int

	mu     sync.Mutex // taken before any topic.mu
	topics map[string]*topic
	nsubs  int

	obsSubscribers *obs.Gauge
	obsTopics      *obs.Gauge
	obsAttached    *obs.Counter
	obsEvicted     *obs.Counter
	obsFrames      *obs.Counter
	obsEncoded     *obs.Counter
}

func newHub(backend Backend, queueSize int, r *obs.Registry) *hub {
	return &hub{
		backend:        backend,
		queueSize:      queueSize,
		topics:         make(map[string]*topic),
		obsSubscribers: r.Gauge("gateway_subscribers"),
		obsTopics:      r.Gauge("gateway_broadcast_topics"),
		obsAttached:    r.Counter("gateway_subscriptions_total"),
		obsEvicted:     r.Counter("gateway_evictions_total"),
		obsFrames:      r.Counter("gateway_frames_sent_total"),
		obsEncoded:     r.Counter("gateway_frames_encoded_total"),
	}
}

// frame is one subscription frame, built once and never written again: body
// is the JSON encoding of its apiv1.Frame, which each transport frames as it
// writes it (appendSSE, appendWS). A tuple frame keeps its stream ID and the
// decoded tuple, from which in-process readers build the API form; fin is
// the API form of a terminal frame and nil on a tuple frame.
type frame struct {
	id   uint64
	in   telemetry.Info
	fin  *apiv1.Frame
	body []byte
}

// newFrame encodes the terminal frame fin.
func newFrame(fin apiv1.Frame) *frame {
	body, _ := fin.AppendJSON(nil) // only a tuple's value can fail to encode
	return &frame{fin: &fin, body: body}
}

// api returns the frame's form on the public contract.
func (f *frame) api() apiv1.Frame {
	if f.fin != nil {
		return *f.fin
	}
	t := tupleFromInfo(f.in, f.id)
	return apiv1.Frame{Type: apiv1.FrameTuple, Tuple: &t}
}

// encode turns one entry of metric's stream into a frame; nil for what is
// not part of the contract (foreign bytes on the topic, a value JSON cannot
// carry). The body is encoded into a stack buffer and kept as an exact-size
// copy, and the decode keeps the topic's metric string.
func (h *hub) encode(e stream.Entry, metric string) *frame {
	in := telemetry.Info{Metric: telemetry.MetricID(metric)}
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		return nil
	}
	var scratch [256]byte
	t := tupleFromInfo(in, e.ID)
	api := apiv1.Frame{Type: apiv1.FrameTuple, Tuple: &t}
	body, err := api.AppendJSON(scratch[:0])
	if err != nil {
		return nil
	}
	h.obsEncoded.Inc()
	return &frame{id: e.ID, in: in, body: append([]byte(nil), body...)}
}

// topic is one broadcaster: the upstream cursor, the ring, and its readers.
type topic struct {
	hub    *hub
	metric string
	cancel context.CancelFunc // ends the upstream cursor
	done   chan struct{}      // closed when run has returned

	mu    sync.Mutex
	ring  []*frame // slot seq%len holds frame number seq
	seq   uint64   // frames appended so far
	floor uint64   // the ring holds every frame with a stream ID above this
	subs  map[*Subscriber]struct{}
}

// startTopic opens metric's upstream cursor a ring's length behind the tail
// (or at afterID when that is nearer), so the ring begins with the newest
// retained frames and a reconnecting client resumes from it. Caller holds
// h.mu, also across Follow, so that a refusal is still attach's error.
func (h *hub) startTopic(metric string, afterID uint64) (*topic, error) {
	ctx, cancel := context.WithCancel(context.Background())
	tail := h.backend.Tail(ctx, metric)
	start := min(afterID, tail)
	if n := uint64(h.queueSize); tail > n {
		start = max(start, tail-n)
	}
	cur, err := h.backend.Follow(ctx, metric, start)
	if err != nil {
		cancel()
		return nil, err
	}
	t := &topic{hub: h, metric: metric, cancel: cancel, done: make(chan struct{}),
		ring: make([]*frame, h.queueSize), floor: start, subs: make(map[*Subscriber]struct{})}
	h.topics[metric] = t
	h.obsTopics.Set(float64(len(h.topics)))
	go t.run(cur, start, tail)
	return t, nil
}

// goaway ends a subscription the server closes gracefully.
var goaway = apiv1.Frame{Type: apiv1.FrameGoaway,
	Error: apiv1.Errorf(apiv1.CodeDraining, true, "subscription closed by server")}

// overtaken ends a subscription whose cursor retention overtook: the entries
// after last were dropped before they were read, and the stream went on at
// next. Retryable: a resume point behind retention starts at the oldest
// retained entry.
func overtaken(metric string, last, next uint64) apiv1.Frame {
	return apiv1.Frame{Type: apiv1.FrameError, Error: apiv1.Errorf(apiv1.CodeUnavailable, true,
		"stream %q lost IDs %d..%d to retention before they were read", metric, last+1, next-1)}
}

// dropTopic forgets t, so that nobody new joins it, and ends its upstream
// cursor; run then says goodbye to whoever is left. Caller holds h.mu.
func (h *hub) dropTopic(t *topic) {
	if h.topics[t.metric] == t {
		delete(h.topics, t.metric)
		h.obsTopics.Set(float64(len(h.topics)))
	}
	t.cancel()
}

// run is the broadcaster: one decode, one encode and one ring append per
// entry, whatever the number of subscribers. Upstream ends when the topic is
// dropped (last subscriber gone, or drain), when the bus closes, or when
// retention overtakes the cursor: every run must start right after the last
// one, the first right after start — or, when the ring reaches further back
// than retention, anywhere up to the tail seen at start: history that aged
// out before anyone read it, which no reader could have had. Any other skip
// lost entries the ring's readers were promised, and ends every subscriber
// with a retryable unavailable frame.
func (t *topic) run(cur stream.Cursor, last, tail uint64) {
	defer close(t.done)
	fin := goaway
	for run, err := cur.Next(); err == nil; run, err = cur.Next() {
		if first := run[0].ID; first != last+1 && first > tail+1 {
			fin = overtaken(t.metric, last, first)
			break
		}
		last, tail = run[len(run)-1].ID, 0
		for _, e := range run {
			if f := t.hub.encode(e, t.metric); f != nil {
				t.publish(f)
			}
		}
	}
	t.hub.mu.Lock()
	t.hub.dropTopic(t)
	t.hub.mu.Unlock()
	t.mu.Lock()
	left := make([]*Subscriber, 0, len(t.subs))
	for s := range t.subs {
		left = append(left, s)
	}
	t.mu.Unlock()
	for _, s := range left {
		s.finish(fin)
	}
}

// publish appends f to the ring, wakes the readers, and evicts those the
// append has lapped. It never waits for a reader.
func (t *topic) publish(f *frame) {
	n := uint64(len(t.ring))
	var slow []*Subscriber
	t.mu.Lock()
	if t.seq >= n {
		t.floor = t.ring[t.seq%n].id
	}
	t.ring[t.seq%n] = f
	t.seq++
	for s := range t.subs {
		switch {
		case !s.joined: // reading retained history at its own pace
		case t.seq-s.pos > n:
			s.joined = false
			slow = append(slow, s)
		default:
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
	t.mu.Unlock()
	for _, s := range slow {
		s.finish(apiv1.Frame{Type: apiv1.FrameError, Error: apiv1.Errorf(apiv1.CodeSlowConsumer, true,
			"subscriber for %q fell %d frames behind the live tail", t.metric, n)})
	}
}

// join puts s on the ring right behind stream ID after, if the ring still
// holds every frame newer than that. Caller holds t.mu.
func (t *topic) join(s *Subscriber, after uint64) bool {
	s.after = after
	if after < t.floor {
		return false
	}
	n := uint64(len(t.ring))
	s.pos = t.seq - min(t.seq, n)
	for s.pos < t.seq && t.ring[s.pos%n].id <= after {
		s.pos++ // already seen: not slack to be lapped on
	}
	s.joined = true
	return true
}

// poll returns the next ring frame due to s, or nil when s is level with
// the tail or not on the ring.
func (t *topic) poll(s *Subscriber) *frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	for s.joined && s.pos < t.seq {
		f := t.ring[s.pos%uint64(len(t.ring))]
		s.pos++
		if f.id > s.after {
			return f
		}
	}
	return nil
}

// Subscriber is one attached live-stream consumer, transport-agnostic: the
// WS and SSE handlers drain it onto their connections, and the load
// scenario drains it directly. It owns no goroutine and no queue — the frames
// it has yet to read sit in its topic's ring — and is drained by one
// goroutine at a time.
type Subscriber struct {
	principal string
	topic     *topic

	final  chan apiv1.Frame   // capacity 1: eviction or goaway notice
	wake   chan struct{}      // capacity 1: the ring grew
	ctx    context.Context    // ends with the subscription
	cancel context.CancelFunc // ends ctx and the watch on the attach context

	// Guarded by topic.mu.
	pos    uint64 // number of the next ring frame to read
	after  uint64 // resume point: only frames with a higher stream ID are due
	joined bool   // on the ring, where falling behind means eviction

	// A subscriber that attached behind the ring pulls retained entries over
	// a private cursor until it reaches the ring: being behind on history is
	// not being slow. Touched by the draining goroutine only; nil otherwise.
	hist     stream.Cursor
	histRun  []stream.Entry // what is left of the cursor's last run
	histLast uint64         // ID of the last entry pulled, 0 before the first
	histStop context.CancelFunc

	framesOnce sync.Once
	frames     chan apiv1.Frame

	evicted atomic.Bool
	once    sync.Once
}

// attach registers a new subscriber on metric's broadcaster, starting the
// broadcaster if it is the topic's first.
func (h *hub) attach(ctx context.Context, principal, metric string, afterID uint64) (*Subscriber, error) {
	h.mu.Lock()
	t := h.topics[metric]
	if t == nil {
		var err error
		if t, err = h.startTopic(metric, afterID); err != nil {
			h.mu.Unlock()
			return nil, err
		}
	}
	s := &Subscriber{principal: principal, topic: t,
		final: make(chan apiv1.Frame, 1), wake: make(chan struct{}, 1)}
	sctx, cancel := context.WithCancel(ctx)
	// If ctx is already over, Close runs at once and waits in detach, behind
	// h.mu, until the registration below is complete.
	unwatch := context.AfterFunc(ctx, s.Close)
	s.ctx, s.cancel = sctx, func() { unwatch(); cancel() }
	t.mu.Lock()
	t.subs[s] = struct{}{}
	joined := t.join(s, afterID)
	t.mu.Unlock()
	h.nsubs++
	h.obsSubscribers.Set(float64(h.nsubs))
	h.mu.Unlock()
	h.obsAttached.Inc()
	if !joined {
		hctx, stop := context.WithCancel(sctx)
		hist, err := h.backend.Follow(hctx, metric, afterID)
		if err != nil {
			stop()
			s.Close()
			return nil, err
		}
		s.hist, s.histStop = hist, stop
	}
	return s, nil
}

// detach removes s from its topic; the topic's last subscriber takes the
// broadcaster with it.
func (h *hub) detach(s *Subscriber) {
	t := s.topic
	h.mu.Lock()
	defer h.mu.Unlock()
	t.mu.Lock()
	delete(t.subs, s)
	s.joined = false
	last := len(t.subs) == 0
	t.mu.Unlock()
	if last {
		h.dropTopic(t)
	}
	h.nsubs--
	h.obsSubscribers.Set(float64(h.nsubs))
}

// drain drops every topic, whose broadcasters hand their subscribers a
// goaway on the way out, and waits (bounded by ctx) on their done signals so
// the caller can close the backend without racing in-flight deliveries.
func (h *hub) drain(ctx context.Context) {
	h.mu.Lock()
	topics := make([]*topic, 0, len(h.topics))
	for _, t := range h.topics {
		topics = append(topics, t)
		h.dropTopic(t)
	}
	h.mu.Unlock()
	for _, t := range topics {
		select {
		case <-t.done:
		case <-ctx.Done():
			return
		}
	}
}

// finish ends the subscription once with the terminal frame f; a
// slow_consumer one is an eviction. It detaches before it queues f, so
// whoever reads that frame finds the hub already without the subscriber.
func (s *Subscriber) finish(f apiv1.Frame) {
	s.once.Do(func() {
		h := s.topic.hub
		if f.Error.Code == apiv1.CodeSlowConsumer {
			s.evicted.Store(true)
			h.obsEvicted.Inc()
		}
		h.detach(s) // h.mu also orders this after attach, which sets s.cancel
		s.cancel()
		s.final <- f
	})
}

// Close detaches the subscriber (client went away).
func (s *Subscriber) Close() { s.finish(goaway) }

// pull returns the next frame of retained history (nil for an entry that is
// not part of the contract) and joins the ring once the private cursor has
// reached it. History is there to be read, so this blocks only under the
// subscriber's own context, whose end — like the bus closing — takes the
// subscriber off the cursor. The first entry may lie past a resume point that
// retention had already dropped; after it, a skip ends the subscription the
// way the broadcaster's does.
func (s *Subscriber) pull() *frame {
	if len(s.histRun) == 0 {
		run, err := s.hist.Next()
		if err != nil {
			s.hist = nil
			s.Close()
			return nil
		}
		if s.histLast != 0 && run[0].ID != s.histLast+1 {
			s.hist = nil
			s.finish(overtaken(s.topic.metric, s.histLast, run[0].ID))
			return nil
		}
		s.histRun = run
	}
	e, t := s.histRun[0], s.topic
	s.histRun = s.histRun[1:]
	s.histLast = e.ID
	t.mu.Lock()
	joined := t.join(s, e.ID)
	t.mu.Unlock()
	if joined {
		s.histStop()
		s.hist, s.histRun = nil, nil
	}
	return t.hub.encode(e, t.metric)
}

// next returns the subscriber's next tuple frame and true, or — the
// subscription over — the terminal frame read from final and false. A nil
// frame with false means ctx ended first.
func (s *Subscriber) next(ctx context.Context, final <-chan apiv1.Frame) (*frame, bool) {
	t := s.topic
	for {
		var f *frame
		if s.hist != nil {
			f = s.pull()
		} else if f = t.poll(s); f == nil {
			select {
			case <-s.wake:
			case fin := <-final:
				return newFrame(fin), false
			case <-ctx.Done():
				return nil, false
			}
		}
		if f != nil {
			t.hub.obsFrames.Inc()
			return f, true
		}
	}
}

// Next returns the next frame to deliver. The second result is false when
// the subscription is over: the caller writes the returned terminal frame
// (if any) and closes its transport. A false result with an empty frame
// means ctx ended first.
func (s *Subscriber) Next(ctx context.Context) (apiv1.Frame, bool) {
	f, more := s.next(ctx, s.final)
	if f == nil {
		return apiv1.Frame{}, false
	}
	return f.api(), more
}

// Frames adapts the subscription to a channel for in-process drains that
// select on it beside Final. A subscriber is a cursor, not a queue, so the
// channel is not native: the first call starts a goroutine that pulls frames
// and hands them over one by one until the subscription ends. Use it instead
// of Next, not together with it.
func (s *Subscriber) Frames() <-chan apiv1.Frame {
	s.framesOnce.Do(func() {
		s.frames = make(chan apiv1.Frame)
		go func() {
			for {
				f, _ := s.next(s.ctx, nil)
				if f == nil {
					return
				}
				select {
				case s.frames <- f.api():
				case <-s.ctx.Done():
					return
				}
			}
		}()
	})
	return s.frames
}

// Final exposes the terminal-frame channel (load-scenario fast path).
func (s *Subscriber) Final() <-chan apiv1.Frame { return s.final }

// Evicted reports whether the subscriber was cut loose as a slow consumer.
func (s *Subscriber) Evicted() bool { return s.evicted.Load() }

// Principal returns the authenticated principal that attached this
// subscriber.
func (s *Subscriber) Principal() string { return s.principal }
