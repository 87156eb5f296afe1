package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
	// Subscribers is the total attached client count (default 1000).
	Subscribers int
	// SlowFraction is the share of subscribers that never drain
	// (default 0.1).
	SlowFraction float64
	// Tuples is how many tuples are published in total (default 4*Queue).
	Tuples int
	// Queue is how many frames a subscriber may trail the tail by
	// (default 64).
	Queue int
}

func (c *GatewayConfig) defaults() {
	if c.Subscribers <= 0 {
		c.Subscribers = 1000
	}
	if c.SlowFraction <= 0 {
		c.SlowFraction = 0.1
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Tuples <= 0 {
		c.Tuples = 4 * c.Queue
	}
}

// GatewayReport is the outcome of one gateway fan-out run.
type GatewayReport struct {
	Subscribers int           // total attached
	Slow        int           // configured to never drain
	Tuples      int           // published to the topic
	Delivered   uint64        // frames drained by well-behaved subscribers
	Evicted     int           // slow subscribers cut loose
	HeapBytes   uint64        // live heap after the run (post-GC)
	Elapsed     time.Duration // wall time of the run
}

// RunGateway executes the scenario and checks its invariants, returning an
// error on the first violation.
func RunGateway(cfg GatewayConfig) (GatewayReport, error) {
	cfg.defaults()
	start := time.Now()

	// Retention must hold the whole run: a zero-loss claim is meaningless if
	// the broker may silently age entries out from under a cursor.
	broker := stream.NewBroker(cfg.Tuples)
	defer broker.Close()
	reg := obs.NewRegistry()
	gw := gateway.New(gateway.NewBusBackend(broker, 0), gateway.Config{
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

	ctx := context.Background()
	var well []*gateway.Subscriber
	var slowSubs []*gateway.Subscriber
	for i := 0; i < cfg.Subscribers; i++ {
		principal := fmt.Sprintf("sub-%05d", i)
		sub, err := gw.Attach(ctx, principal, GatewayMetric, 0)
		if err != nil {
			return GatewayReport{}, fmt.Errorf("attach %s: %w", principal, err)
		}
		if slow[i] {
			slowSubs = append(slowSubs, sub)
		} else {
			well = append(well, sub)
		}
	}

	// Publish-batch barrier: batches of at most Queue tuples, every
	// well-behaved subscriber drains the batch before the next goes out.
	// The drain fans out over a bounded worker pool; each worker verifies
	// per-subscriber stream-order contiguity as it goes.
	base := time.Unix(1700000000, 0).UnixNano()
	lastID := make([]uint64, len(well))
	var delivered atomic.Uint64
	published := 0
	for published < cfg.Tuples {
		n := cfg.Queue
		if cfg.Tuples-published < n {
			n = cfg.Tuples - published
		}
		payloads := make([][]byte, n)
		for i := 0; i < n; i++ {
			seq := published + i
			in := telemetry.NewFact(telemetry.MetricID(GatewayMetric), base+int64(seq)*int64(time.Second), float64(seq))
			p, err := in.MarshalBinary()
			if err != nil {
				return GatewayReport{}, err
			}
			payloads[i] = p
		}
		if _, err := broker.PublishBatch(ctx, GatewayMetric, payloads); err != nil {
			return GatewayReport{}, fmt.Errorf("publish batch at %d: %w", published, err)
		}
		published += n

		drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		if err := drainBatch(drainCtx, well, lastID, n, &delivered); err != nil {
			cancel()
			return GatewayReport{}, err
		}
		cancel()
	}

	// Every slow subscriber must have been evicted with the contract's
	// slow_consumer frame (Tuples > Queue guarantees the overflow happened).
	evicted := 0
	for _, sub := range slowSubs {
		select {
		case fr := <-sub.Final():
			if fr.Type != apiv1.FrameError || fr.Error == nil || fr.Error.Code != apiv1.CodeSlowConsumer {
				return GatewayReport{}, fmt.Errorf("slow subscriber %s: terminal frame %+v, want slow_consumer", sub.Principal(), fr)
			}
			evicted++
		case <-time.After(time.Minute):
			return GatewayReport{}, fmt.Errorf("slow subscriber %s not evicted", sub.Principal())
		}
		if !sub.Evicted() {
			return GatewayReport{}, fmt.Errorf("slow subscriber %s: Evicted() false after terminal frame", sub.Principal())
		}
	}

	// Zero-loss check: every well-behaved subscriber saw exactly the full
	// stream.
	for i, id := range lastID {
		if id != uint64(cfg.Tuples) {
			return GatewayReport{}, fmt.Errorf("well-behaved subscriber %d stopped at stream ID %d of %d", i, id, cfg.Tuples)
		}
	}
	for _, sub := range well {
		if sub.Evicted() {
			return GatewayReport{}, fmt.Errorf("well-behaved subscriber %s evicted", sub.Principal())
		}
		sub.Close()
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	return GatewayReport{
		Subscribers: cfg.Subscribers,
		Slow:        nSlow,
		Tuples:      cfg.Tuples,
		Delivered:   delivered.Load(),
		Evicted:     evicted,
		HeapBytes:   ms.HeapAlloc,
		Elapsed:     time.Since(start),
	}, nil
}

// drainBatch pulls exactly n frames from every subscriber in subs, checking
// stream-order contiguity against lastID, over a bounded worker pool.
func drainBatch(ctx context.Context, subs []*gateway.Subscriber, lastID []uint64, n int, delivered *atomic.Uint64) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(subs) {
		workers = len(subs)
	}
	if workers < 1 {
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	next := atomic.Int64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				sub := subs[i]
				for k := 0; k < n; k++ {
					fr, more := sub.Next(ctx)
					if fr.Type != apiv1.FrameTuple || !more {
						errs <- fmt.Errorf("subscriber %d: frame %d/%d of batch: %+v more=%v", i, k+1, n, fr, more)
						return
					}
					if fr.Tuple.StreamID != lastID[i]+1 {
						errs <- fmt.Errorf("subscriber %d: stream ID %d after %d (gap or reorder)", i, fr.Tuple.StreamID, lastID[i])
						return
					}
					lastID[i] = fr.Tuple.StreamID
					delivered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
