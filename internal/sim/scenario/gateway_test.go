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
	checkGateway(t, cfg, rep)
	t.Logf("subs=%d slow=%d tuples=%d delivered=%d evicted=%d heap=%dKB elapsed=%s digest=%s",
		rep.Subscribers, rep.Slow, rep.Tuples, rep.Delivered, rep.Evicted, rep.HeapBytes>>10, rep.Elapsed, rep.Digest)
}

// checkGateway applies the fan-out contract's counts to one run.
func checkGateway(t *testing.T, cfg GatewayConfig, rep *GatewayReport) {
	t.Helper()
	if rep.Evicted != rep.Slow {
		t.Errorf("evicted %d of %d slow subscribers", rep.Evicted, rep.Slow)
	}
	if want := uint64(cfg.Subscribers-rep.Slow) * uint64(cfg.Tuples); rep.Delivered != want {
		t.Errorf("delivered %d frames, want %d (zero loss)", rep.Delivered, want)
	}
	// Bounded memory: a fixed budget per subscriber plus a base allowance
	// — a subscriber is a cursor into its topic's ring, and nothing grows
	// with published volume.
	if budget := uint64(cfg.Subscribers)*16<<10 + 128<<20; rep.HeapBytes > budget {
		t.Errorf("heap %d bytes exceeds budget %d", rep.HeapBytes, budget)
	}
}
