package gateway

import (
	"context"

	apiv1 "repro/api/v1"
	"repro/internal/aqe"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// BusBackend serves the gateway from any stream.Bus — a dialed
// stream.Client in the standalone cmd/apollo-gateway tier, or an in-process
// Broker in tests and the load scenario. Queries run through a private AQE
// engine over aqe.BusResolver with its own shared prepared-plan cache;
// retention stats are unavailable (the archive lives with the service).
type BusBackend struct {
	bus    stream.Bus
	engine *aqe.Engine
}

// NewBusBackend builds a backend over bus.
func NewBusBackend(bus stream.Bus) *BusBackend {
	return &BusBackend{bus: bus, engine: aqe.NewEngine(aqe.BusResolver{Bus: bus})}
}

// Query implements Backend.
func (b *BusBackend) Query(sql string) (*aqe.Result, error) { return b.engine.Query(sql) }

// Latest implements Backend.
func (b *BusBackend) Latest(metric string) (telemetry.Info, bool) {
	e, err := b.bus.Latest(context.Background(), metric)
	if err != nil {
		return telemetry.Info{}, false
	}
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		return telemetry.Info{}, false
	}
	return in, true
}

// Topics implements Backend over either transport's listing surface.
func (b *BusBackend) Topics(ctx context.Context) ([]string, error) {
	switch t := b.bus.(type) {
	case interface {
		Topics(ctx context.Context) ([]string, error)
	}:
		return t.Topics(ctx)
	case interface{ Topics() []string }:
		return t.Topics(), nil
	default:
		return nil, ErrUnavailable
	}
}

// Follow implements Backend.
func (b *BusBackend) Follow(ctx context.Context, metric string, afterID uint64) (stream.Cursor, error) {
	return b.bus.Follow(ctx, metric, afterID)
}

// Tail implements Backend.
func (b *BusBackend) Tail(ctx context.Context, metric string) uint64 {
	e, err := b.bus.Latest(ctx, metric)
	if err != nil { // an empty or unknown topic
		return 0
	}
	return e.ID
}

// Degraded implements Backend; a bare bus carries no vertex health.
func (b *BusBackend) Degraded() bool { return false }

// Retention implements Backend.
func (b *BusBackend) Retention() ([]apiv1.RetentionMetric, error) { return nil, ErrUnavailable }

var _ Backend = (*BusBackend)(nil)
