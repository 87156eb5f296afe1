package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// tuple is one delivered (timestamp, value), kept for audited metrics.
type tuple struct {
	ts    int64
	value float64
}

// subscriber is one reader at the far end of the pipeline, whatever carries
// it: Service.Subscribe in process, a fabric client, or a raw SSE or
// WebSocket connection. Its goroutine owns the plain fields; the harness
// reads them after join().
type subscriber struct {
	topic     string
	transport string // inproc, fabric, sse, ws
	win       *window
	// probeEpoch, when set, marks a reader of probe tuples: the sample's
	// creation time is epoch+value (the hook's poll time), not the stamp of
	// whichever vertex forwarded it last.
	probeEpoch  int64
	decodeEvery int  // sockets: fully decode one frame in this many (0: all)
	keepLog     bool // keep every tuple for the query audit
	// Traced runs record a span per sample, creation to arrival, named
	// spanName under spanParent.
	rec                  *recorder
	spanName, spanParent string

	delivered atomic.Uint64
	lastID    atomic.Uint64

	lastTS   int64
	gaps     uint64 // stream ids skipped
	disorder uint64 // stream ids or timestamps going backwards
	bad      uint64 // frames that did not decode or named another stream
	evicted  bool
	fresh    []int64 // receive minus creation, ns, for measured tuples created in the window
	created  []int64 // creation time of each fresh sample, unix ns
	log      []tuple
	attach   time.Duration

	cancel context.CancelFunc
	done   chan struct{}
}

// freshCap bounds a reader's sample array; it is allocated before the window
// so the arrays do not grow inside it.
func newSubscriber(r *runner, topic, transport string, expectPerSec float64) *subscriber {
	n := int(expectPerSec*float64(r.cfg.seconds)*1.5) + 1024
	s := &subscriber{topic: topic, transport: transport, win: &r.win, done: make(chan struct{}),
		rec: r.rec, spanName: "path." + transport}
	s.fresh = make([]int64, 0, n)
	s.created = make([]int64, 0, n)
	r.own(n * 16)
	return s
}

func (s *subscriber) withLog(r *runner, perSec float64) *subscriber {
	n := int(perSec*float64(r.cfg.seconds+warmupSeconds+setupSlackSeconds)*1.5) + 1024
	s.keepLog = true
	s.log = make([]tuple, 0, n)
	r.own(n * 16)
	return s
}

func (s *subscriber) asProbe(r *runner) *subscriber {
	s.probeEpoch = r.epoch.UnixNano()
	return s
}

// observe accounts one delivered tuple. id is the broker stream id, 0 when
// the transport does not carry one.
func (s *subscriber) observe(id uint64, in telemetry.Info, now int64) {
	if id != 0 {
		s.noteID(id)
	} else if in.Source == telemetry.Measured {
		// Predicted tuples carry future stamps, so only measured ones are
		// ordered against each other.
		if in.Timestamp < s.lastTS {
			s.disorder++
		}
		s.lastTS = in.Timestamp
	}
	if in.Source == telemetry.Measured {
		created := in.Timestamp
		if s.probeEpoch != 0 {
			created = s.probeEpoch + int64(in.Value)
		}
		if s.win.contains(created) && len(s.fresh) < cap(s.fresh) {
			s.fresh = append(s.fresh, now-created)
			s.created = append(s.created, created)
			s.rec.add(uint64(created), s.spanName, s.spanParent, created-s.rec.epoch(), now-s.rec.epoch())
		}
	}
	if s.keepLog && len(s.log) < cap(s.log) {
		s.log = append(s.log, tuple{in.Timestamp, in.Value})
	}
	s.delivered.Add(1)
}

// skipped accounts a frame whose id was read but whose body was not decoded.
func (s *subscriber) skipped(id uint64) {
	s.noteID(id)
	s.delivered.Add(1)
}

// noteID checks a stream id against the one before it.
func (s *subscriber) noteID(id uint64) {
	if last := s.lastID.Load(); last != 0 && id != last+1 {
		if id <= last {
			s.disorder++
		} else {
			s.gaps += id - last - 1
		}
	}
	s.lastID.Store(id)
}

// position is the stream id of the last tuple received. Readers without ids
// (Service.Subscribe) start at id 1, so their count is their position.
func (s *subscriber) position() uint64 {
	if id := s.lastID.Load(); id != 0 {
		return id
	}
	return s.delivered.Load()
}

func (s *subscriber) join() {
	s.cancel()
	<-s.done
}

// subscribeInproc reads a metric through Service.Subscribe, which decodes
// tuples and drops the stream id.
func subscribeInproc(svc *core.Service, s *subscriber) error {
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := svc.Subscribe(ctx, telemetry.MetricID(s.topic))
	if err != nil {
		cancel()
		return fmt.Errorf("subscribe %s: %w", s.topic, err)
	}
	s.cancel = cancel
	go func() {
		defer close(s.done)
		for in := range ch {
			s.observe(0, in, time.Now().UnixNano())
		}
	}()
	return nil
}

// subscribeFabric reads a topic through a fabric client's streaming
// connection.
func subscribeFabric(c *stream.Client, s *subscriber) error {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	ch, err := c.Subscribe(ctx, s.topic, 0)
	if err != nil {
		cancel()
		return fmt.Errorf("subscribe %s: %w", s.topic, err)
	}
	s.attach = time.Since(start)
	s.cancel = cancel
	go func() {
		defer close(s.done)
		for e := range ch {
			now := time.Now().UnixNano()
			var in telemetry.Info
			if err := in.UnmarshalBinary(e.Payload); err != nil || string(in.Metric) != s.topic {
				s.bad++
				s.skipped(e.ID)
				continue
			}
			s.observe(e.ID, in, now)
		}
	}()
	return nil
}

// freshStats pools the subscribers' samples, as a whole and per second of
// the window.
type freshStats struct {
	ms      dist      // freshness of every sample, ms
	missing int       // published but never delivered
	secP50  []float64 // median freshness of the tuples created in each second
	secOK   []float64 // share of them within freshLimitMS
}

func poolFresh(subs []*subscriber, start int64, keep func(*subscriber) bool) freshStats {
	var all []float64
	var st freshStats
	var bySec [][]float64
	for _, s := range subs {
		if keep != nil && !keep(s) {
			continue
		}
		for i, ns := range s.fresh {
			ms := float64(ns) / 1e6
			all = append(all, ms)
			sec := int((s.created[i] - start) / int64(time.Second))
			for len(bySec) <= sec {
				bySec = append(bySec, nil)
			}
			bySec[sec] = append(bySec[sec], ms)
		}
		st.missing += int(s.gaps)
	}
	st.ms = newDist(all)
	for _, ms := range bySec {
		if len(ms) == 0 {
			continue
		}
		d := newDist(ms)
		within := sort.SearchFloat64s(d.sorted, math.Nextafter(freshLimitMS, math.Inf(1)))
		st.secP50 = append(st.secP50, d.p(50))
		st.secOK = append(st.secOK, float64(within)/float64(d.n()))
	}
	return st
}
