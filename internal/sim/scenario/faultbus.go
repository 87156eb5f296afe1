// Package scenario composes the sim layer with the real pipeline — sampler
// hook -> Fact Vertex -> Delphi -> Insight Vertex -> archive -> query — into
// seeded, fully deterministic end-to-end simulations. A Run drives every
// component synchronously on a single goroutine over a virtual clock, injects
// the faults of a sim.Schedule through a Bus wrapper, checks pipeline
// invariants while it goes, and returns a byte-for-byte reproducible
// transcript (plus its digest) as the replayable failure artifact.
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

// faultBus wraps a stream.Bus and fails or delays operations according to
// the scenario's fault state. It is driven from the single scenario
// goroutine, so plain fields suffice; a BrokerStall advances the virtual
// clock directly (the synchronous stand-in for a blocked broker call).
type faultBus struct {
	inner stream.Bus
	clock *sim.Virtual

	// partitionUntil: while Now is before it, every operation fails with a
	// transient error (the vertex cannot reach the broker at all).
	partitionUntil time.Time
	// stallUntil: while Now is before it, operations succeed but first burn
	// stallLatency of virtual time (a slow, not dead, broker).
	stallUntil   time.Time
	stallLatency time.Duration
	// dropNext fails the next N publish operations (one-shot conn drops).
	dropNext int

	injected uint64 // operations failed or delayed by the scenario
}

const defaultStallLatency = 100 * time.Millisecond

func newFaultBus(inner stream.Bus, clock *sim.Virtual) *faultBus {
	return &faultBus{inner: inner, clock: clock, stallLatency: defaultStallLatency}
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

// gate applies the current fault state to one operation; a non-nil return
// means the operation fails without reaching the broker.
func (f *faultBus) gate(kind string) error {
	now := f.clock.Now()
	if f.dropNext > 0 && kind == "publish" {
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
		f.clock.Advance(f.stallLatency)
	}
	return nil
}

func (f *faultBus) PublishBatch(ctx context.Context, topic string, payloads [][]byte) (uint64, error) {
	if err := f.gate("publish"); err != nil {
		return 0, err
	}
	return f.inner.PublishBatch(ctx, topic, payloads)
}

func (f *faultBus) Latest(ctx context.Context, topic string) (stream.Entry, error) {
	if err := f.gate("read"); err != nil {
		return stream.Entry{}, err
	}
	return f.inner.Latest(ctx, topic)
}

func (f *faultBus) Range(ctx context.Context, topic string, from, to uint64, max int) ([]stream.Entry, error) {
	if err := f.gate("read"); err != nil {
		return nil, err
	}
	return f.inner.Range(ctx, topic, from, to, max)
}

func (f *faultBus) ConsumeBatch(ctx context.Context, topic string, afterID uint64, max int) ([]stream.Entry, error) {
	if err := f.gate("read"); err != nil {
		return nil, err
	}
	return f.inner.ConsumeBatch(ctx, topic, afterID, max)
}

func (f *faultBus) Follow(ctx context.Context, topic string, afterID uint64) (stream.Cursor, error) {
	// The synchronous scenario never subscribes; delegate for completeness.
	return f.inner.Follow(ctx, topic, afterID)
}

var _ stream.Bus = (*faultBus)(nil)
