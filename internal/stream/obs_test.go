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
	if _, err := c.ConsumeBatch(context.Background(), "cpu", 0, 1); err != nil {
		t.Fatal(err)
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
	// Consume of entry 1 with 3 published: served 2 behind the head.
	lag := s.Histograms["stream_broker_consume_lag"]
	if lag.Count != 1 || lag.Sum != 2 {
		t.Fatalf("consume lag histogram = %+v, want one observation of 2", lag)
	}
}
