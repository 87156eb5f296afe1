package stream

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestStreamObsCounters wires a broker, server, and client to one registry and
// checks the transport-level instruments move.
func TestStreamObsCounters(t *testing.T) {
	r := obs.NewRegistry()
	b := NewBroker(0)
	b.Instrument(r)
	defer b.Close()

	srv, err := Serve(b, "127.0.0.1:0", WithServerObs(r))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr(), WithObs(r))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Publish(context.Background(), "cpu", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Snapshot()
	if got := s.Counter("stream_broker_publish_total"); got != 3 {
		t.Fatalf("publish_total = %d, want 3", got)
	}
	if got := s.Counter("stream_broker_publish_bytes_total"); got != 3 {
		t.Fatalf("publish_bytes_total = %d, want 3", got)
	}
	if got := s.Gauge("stream_broker_topics"); got != 1 {
		t.Fatalf("topics gauge = %v, want 1", got)
	}
	if got := s.Counter("stream_server_conns_total"); got != 1 {
		t.Fatalf("server conns_total = %d, want 1", got)
	}
	if got := s.Gauge("stream_server_conns"); got != 1 {
		t.Fatalf("server conns gauge = %v, want 1", got)
	}
	if s.Counter("stream_client_tx_bytes_total") == 0 || s.Counter("stream_client_rx_bytes_total") == 0 {
		t.Fatalf("client frame byte counters did not move: %v", s.Counters)
	}

	ctx, stop := context.WithCancel(context.Background())
	cur, err := c.Follow(ctx, "cpu", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	stop()
	s = r.Snapshot()
	// A subscription's first run, from entry 1 with 3 published: served 2
	// behind the head.
	lag := s.Histograms["stream_broker_consume_lag"]
	if lag.Count != 1 || lag.Sum != 2 {
		t.Fatalf("consume lag histogram = %+v, want one observation of 2", lag)
	}
}

// TestBrokerLogBytesGauge: stream_broker_log_bytes follows the chunk memory
// the broker holds, payload bytes and 2-byte offsets both — up as publishes
// open chunks, down once retention has moved past a whole chunk.
func TestBrokerLogBytesGauge(t *testing.T) {
	r := obs.NewRegistry()
	b := NewBroker(4)
	b.Instrument(r)
	defer b.Close()
	gauge := func() float64 { return r.Snapshot().Gauge("stream_broker_log_bytes") }
	if got := gauge(); got != 0 {
		t.Fatalf("log_bytes = %v before any publish, want 0", got)
	}
	payload := make([]byte, 200) // two to the first chunk
	rose, fell := false, false
	for i, last := 0, 0.0; i < 40; i++ {
		if _, err := b.Publish(context.Background(), "t", payload); err != nil {
			t.Fatal(err)
		}
		now := gauge()
		rose = rose || now > last
		fell = fell || now < last
		last = now
	}
	if !rose || !fell {
		t.Fatalf("log_bytes rose=%v fell=%v over 40 publishes at retention 4, want both", rose, fell)
	}
	tp, _ := b.topicFor("t", false)
	held := 0
	for _, c := range tp.chunks {
		held += cap(c.data)
		if c.starts != nil {
			held += 2 * cap(*c.starts)
		}
	}
	if got := gauge(); got != float64(held) {
		t.Fatalf("log_bytes = %v, the topic's chunks hold %d", got, held)
	}
}
