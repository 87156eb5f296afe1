package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// GatewayMetric is the topic the gateway load scenario publishes.
const GatewayMetric = "sim.gateway.capacity"

// GatewayConfig parameterizes the deterministic gateway fan-out scenario: N
// subscribers attach to one metric stream through the public edge's
// broadcaster; a SlowFraction of them never drain a single frame. The
// invariants the run must prove:
//
//   - every well-behaved subscriber receives every tuple exactly once, in
//     stream order (zero acked-tuple loss);
//   - every slow subscriber is evicted with a slow_consumer error frame
//     instead of blocking the bus or holding frames without bound;
//   - total heap stays within a fixed per-subscriber budget.
//
// Determinism does not come from scheduling (the broadcaster is a real
// goroutine) but from a publish-batch barrier: each batch is at most the
// ring's length and the next batch is published only after every
// well-behaved subscriber drained the previous one, so a well-behaved cursor
// can never be lapped no matter how the scheduler interleaves — the outcome is invariant even
// though the interleavings are not.
type GatewayConfig struct {
	// Seed places the slow subscribers deterministically.
	Seed int64
	// Subscribers is the total attached client count.
	Subscribers int
	// SlowFraction is the share of subscribers that never drain.
	SlowFraction float64
	// Tuples is how many tuples are published in total; more than Queue
	// guarantees every slow subscriber overflows.
	Tuples int
	// Queue is how many frames a subscriber may trail the tail by (> 0).
	Queue int
}

// GatewayReport is the outcome of one gateway fan-out run. Its transcript
// holds the configuration, one line per barrier batch (first ID, size, frames
// delivered) and the evicted principals in name order with their terminal
// code — never heap or wall time, so it is a pure function of the config.
type GatewayReport struct {
	Result

	Subscribers int    // total attached
	Slow        int    // configured to never drain
	Tuples      int    // published to the topic
	Delivered   uint64 // frames drained by well-behaved subscribers
	Evicted     int    // slow subscribers cut loose
	HeapBytes   uint64 // live heap after the run (post-GC)
}

// RunGateway executes the scenario and checks its invariants. A broken
// invariant is a violation in the report; only a set-up failure or a drain
// that cannot go on ends the run early, with a nil report.
func RunGateway(cfg GatewayConfig) (*GatewayReport, error) {
	if cfg.Queue <= 0 {
		return nil, fmt.Errorf("gateway scenario: queue %d, want > 0", cfg.Queue)
	}
	start := time.Now()

	// Retention must hold the whole run: a zero-loss claim is meaningless if
	// the broker may silently age entries out from under a cursor.
	broker := stream.NewBroker(cfg.Tuples)
	defer broker.Close()
	reg := obs.NewRegistry()
	gw := gateway.New(gateway.NewBusBackend(broker), gateway.Config{
		QueueSize: cfg.Queue,
		Rate:      -1,
		Obs:       reg,
	})
	defer gw.Close()

	nSlow := int(float64(cfg.Subscribers) * cfg.SlowFraction)
	slow := make([]bool, cfg.Subscribers)
	for _, i := range rand.New(rand.NewSource(cfg.Seed)).Perm(cfg.Subscribers)[:nSlow] {
		slow[i] = true
	}
	rep := &GatewayReport{Subscribers: cfg.Subscribers, Slow: nSlow, Tuples: cfg.Tuples}
	tr := &transcript{}
	tr.line("gateway seed=%d subs=%d slow=%d tuples=%d queue=%d", cfg.Seed, cfg.Subscribers, nSlow, cfg.Tuples, cfg.Queue)

	ctx := context.Background()
	var well []*gateway.Subscriber
	var slowSubs []*gateway.Subscriber
	for i := 0; i < cfg.Subscribers; i++ {
		principal := fmt.Sprintf("sub-%05d", i)
		sub, err := gw.Attach(ctx, principal, GatewayMetric, 0)
		if err != nil {
			return nil, fmt.Errorf("attach %s: %w", principal, err)
		}
		if slow[i] {
			slowSubs = append(slowSubs, sub)
		} else {
			well = append(well, sub)
		}
	}

	// Publish-batch barrier: batches of at most Queue tuples, every
	// well-behaved subscriber drains the batch before the next goes out.
	// Every frame of a batch fits each queue, so one goroutine drains them
	// all, checking per-subscriber stream-order contiguity as it goes.
	base := time.Unix(1700000000, 0).UnixNano()
	lastID := make([]uint64, len(well))
	for published := 0; published < cfg.Tuples; {
		n := min(cfg.Queue, cfg.Tuples-published)
		payloads := make([][]byte, n)
		for i := range payloads {
			seq := published + i
			in := telemetry.NewFact(telemetry.MetricID(GatewayMetric), base+int64(seq)*int64(time.Second), float64(seq))
			p, err := in.MarshalBinary()
			if err != nil {
				return nil, err
			}
			payloads[i] = p
		}
		first, err := broker.PublishBatch(ctx, GatewayMetric, payloads)
		if err != nil {
			return nil, fmt.Errorf("publish batch at %d: %w", published, err)
		}
		published += n

		drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		for i, sub := range well {
			for k := 0; k < n; k++ {
				fr, more := sub.Next(drainCtx)
				if fr.Type != apiv1.FrameTuple || !more {
					cancel()
					return nil, fmt.Errorf("subscriber %s: frame %d/%d of batch: %+v more=%v", sub.Principal(), k+1, n, fr, more)
				}
				if fr.Tuple.StreamID != lastID[i]+1 {
					tr.failf("subscriber %s: stream ID %d after %d (gap or reorder)", sub.Principal(), fr.Tuple.StreamID, lastID[i])
				}
				lastID[i] = fr.Tuple.StreamID
			}
		}
		cancel()
		rep.Delivered += uint64(n * len(well))
		tr.line("batch first=%d n=%d delivered=%d", first, n, n*len(well))
	}

	// Every slow subscriber must have been evicted with the contract's
	// slow_consumer frame (Tuples > Queue guarantees the overflow happened).
	sort.Slice(slowSubs, func(i, j int) bool { return slowSubs[i].Principal() < slowSubs[j].Principal() })
	for _, sub := range slowSubs {
		select {
		case fr := <-sub.Final():
			code := apiv1.Code("none")
			if fr.Error != nil {
				code = fr.Error.Code
			}
			tr.line("evicted %s code=%s", sub.Principal(), code)
			if fr.Type != apiv1.FrameError || code != apiv1.CodeSlowConsumer {
				tr.failf("slow subscriber %s: terminal frame %+v, want slow_consumer", sub.Principal(), fr)
			} else {
				rep.Evicted++
			}
		case <-time.After(time.Minute):
			tr.failf("slow subscriber %s not evicted", sub.Principal())
		}
		if !sub.Evicted() {
			tr.failf("slow subscriber %s: Evicted() false after terminal frame", sub.Principal())
		}
	}

	// Zero-loss check: every well-behaved subscriber saw exactly the full
	// stream.
	for i, sub := range well {
		if lastID[i] != uint64(cfg.Tuples) {
			tr.failf("well-behaved subscriber %s stopped at stream ID %d of %d", sub.Principal(), lastID[i], cfg.Tuples)
		}
		if sub.Evicted() {
			tr.failf("well-behaved subscriber %s evicted", sub.Principal())
		}
		sub.Close()
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapBytes = ms.HeapAlloc

	var err error
	rep.Result, err = tr.seal(time.Since(start), "delivered=%d evicted=%d", rep.Delivered, rep.Evicted)
	return rep, err
}
