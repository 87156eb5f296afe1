package aqe

import (
	"context"

	"repro/internal/score"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// BusResolver resolves AQE tables against a stream.Bus, so the engine runs
// over a remote fabric (a dialed stream.Client) or directly over an
// in-process Broker — the resolver apolloctl and the HTTP gateway share.
// Each table maps to the topic of the same name; Latest and ScanRange are
// answered from the topic's retained ring.
//
// One Engine over a BusResolver is safe for concurrent use: plans are
// immutable once compiled and the prepared-plan LRU is internally locked, so
// the gateway serves every principal from a single shared plan cache — a
// query prepared for one principal is a cache hit for all others.
type BusResolver struct {
	// Bus serves Latest/Range; both stream.Broker and stream.Client qualify.
	Bus stream.Bus
}

// Resolve implements Resolver.
func (r BusResolver) Resolve(table string) (score.Executor, error) {
	return busExecutor{bus: r.Bus, topic: table}, nil
}

// busExecutor adapts one topic to the score.Executor interface.
type busExecutor struct {
	bus   stream.Bus
	topic string
}

// Latest implements score.Executor.
func (x busExecutor) Latest() (telemetry.Info, bool) {
	e, err := x.bus.Latest(context.Background(), x.topic)
	if err != nil {
		return telemetry.Info{}, false
	}
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		return telemetry.Info{}, false
	}
	return in, true
}

// ScanRange implements score.Executor over the topic's retained entries,
// decoding each and passing fn those whose timestamps fall in [from, to].
func (x busExecutor) ScanRange(from, to int64, fn func(telemetry.Info) bool) {
	entries, err := x.bus.Range(context.Background(), x.topic, 1, 1<<62, 0)
	if err != nil {
		return
	}
	for _, e := range entries {
		var in telemetry.Info
		if err := in.UnmarshalBinary(e.Payload); err != nil {
			continue
		}
		if in.Timestamp >= from && in.Timestamp <= to && !fn(in) {
			return
		}
	}
}
