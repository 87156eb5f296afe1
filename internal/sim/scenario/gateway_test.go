package scenario

import (
	"flag"
	"testing"
)

var (
	gatewaySubs   = flag.Int("gateway.subs", 400, "gateway scenario subscriber count")
	gatewayTuples = flag.Int("gateway.tuples", 256, "gateway scenario tuple count")
	gatewayQueue  = flag.Int("gateway.queue", 64, "gateway scenario per-subscriber queue bound")
)

// TestGatewayScenario proves the public edge's backpressure contract at
// moderate fan-out (-gateway.subs=10000 for the 10k-subscriber
// configuration): zero acked-tuple loss for well-behaved subscribers,
// guaranteed eviction for slow ones, bounded heap.
func TestGatewayScenario(t *testing.T) {
	cfg := GatewayConfig{
		Seed:         42,
		Subscribers:  *gatewaySubs,
		SlowFraction: 0.1,
		Tuples:       *gatewayTuples,
		Queue:        *gatewayQueue,
	}
	rep, err := RunGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantWell := cfg.Subscribers - rep.Slow
	if rep.Evicted != rep.Slow {
		t.Errorf("evicted %d of %d slow subscribers", rep.Evicted, rep.Slow)
	}
	if want := uint64(wantWell) * uint64(cfg.Tuples); rep.Delivered != want {
		t.Errorf("delivered %d frames, want %d (zero loss)", rep.Delivered, want)
	}
	// Bounded memory: a fixed budget per subscriber plus a base allowance
	// — a subscriber is a cursor into its topic's ring, and nothing grows
	// with published volume.
	budget := uint64(cfg.Subscribers)*16<<10 + 128<<20
	if rep.HeapBytes > budget {
		t.Errorf("heap %d bytes exceeds budget %d", rep.HeapBytes, budget)
	}
	t.Logf("subs=%d slow=%d tuples=%d delivered=%d evicted=%d heap=%dKB elapsed=%s",
		rep.Subscribers, rep.Slow, rep.Tuples, rep.Delivered, rep.Evicted, rep.HeapBytes>>10, rep.Elapsed)
}

// TestGatewayScenarioSeeded checks the slow-set placement is a pure
// function of the seed: two runs with the same seed evict the same count,
// and the report shape is reproducible.
func TestGatewayScenarioSeeded(t *testing.T) {
	cfg := GatewayConfig{Seed: 7, Subscribers: 50, SlowFraction: 0.2, Tuples: 96, Queue: 32}
	a, err := RunGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Elapsed, b.Elapsed = 0, 0
	a.HeapBytes, b.HeapBytes = 0, 0
	if a != b {
		t.Fatalf("same seed, different outcome:\n%+v\n%+v", a, b)
	}
}
