package scenario

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/stream"
)

// errInjected marks a scenario-injected transport fault; wrapping ECONNRESET
// makes stream.IsTransient report true, so the store-and-forward path treats
// it exactly like a real broker outage.
func errInjected(kind sim.FaultKind) error {
	return fmt.Errorf("sim: injected %s: %w", kind, syscall.ECONNRESET)
}

// gatedBus puts a gate in front of every stream.Bus operation: one the gate
// refuses fails without reaching inner. The gate is told whether the
// operation is a "publish" or a "read".
type gatedBus struct {
	inner stream.Bus
	gate  func(op string) error
}

func (g gatedBus) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	if err := g.gate("publish"); err != nil {
		return 0, err
	}
	return g.inner.PublishBatch(ctx, topic, payloads)
}

func (g gatedBus) Latest(ctx context.Context, topic string) (stream.Entry, error) {
	if err := g.gate("read"); err != nil {
		return stream.Entry{}, err
	}
	return g.inner.Latest(ctx, topic)
}

func (g gatedBus) Range(ctx context.Context, topic string, from, to uint64, max int) ([]stream.Entry, error) {
	if err := g.gate("read"); err != nil {
		return nil, err
	}
	return g.inner.Range(ctx, topic, from, to, max)
}

func (g gatedBus) Follow(ctx context.Context, topic string, afterID uint64) (stream.Cursor, error) {
	if err := g.gate("read"); err != nil {
		return nil, err
	}
	return g.inner.Follow(ctx, topic, afterID)
}

// stallLatency is the virtual time each operation burns while a BrokerStall
// window is active.
const stallLatency = 100 * time.Millisecond

// faultBus gates a broker by the pipeline scenario's fault state. It is
// driven from the single scenario goroutine, so plain fields suffice; a
// BrokerStall advances the virtual clock directly (the synchronous stand-in
// for a blocked broker call).
type faultBus struct {
	gatedBus
	clock *sim.Virtual

	// partitionUntil: while Now is before it, every operation fails with a
	// transient error (the vertex cannot reach the broker at all).
	partitionUntil time.Time
	// stallUntil: while Now is before it, operations succeed but first burn
	// stallLatency of virtual time (a slow, not dead, broker).
	stallUntil time.Time
	// dropNext fails the next N publish operations (one-shot conn drops).
	dropNext int

	injected uint64 // operations failed or delayed by the scenario
}

func newFaultBus(inner stream.Bus, clock *sim.Virtual) *faultBus {
	f := &faultBus{clock: clock}
	f.gatedBus = gatedBus{inner: inner, gate: f.fault}
	return f
}

// apply arms the bus for one schedule event. SlowDisk is handled at the
// sampler hook, not here.
func (f *faultBus) apply(e sim.Event, now time.Time) {
	switch e.Kind {
	case sim.ConnDrop:
		f.dropNext++
	case sim.Partition:
		f.partitionUntil = now.Add(e.Duration)
	case sim.BrokerStall:
		f.stallUntil = now.Add(e.Duration)
	}
}

// fault applies the current fault state to one operation; a non-nil return
// means the operation fails without reaching the broker.
func (f *faultBus) fault(op string) error {
	now := f.clock.Now()
	if f.dropNext > 0 && op == "publish" {
		f.dropNext--
		f.injected++
		return errInjected(sim.ConnDrop)
	}
	if now.Before(f.partitionUntil) {
		f.injected++
		return errInjected(sim.Partition)
	}
	if now.Before(f.stallUntil) {
		f.injected++
		f.clock.Advance(stallLatency)
	}
	return nil
}
