package core

import (
	"context"
	"path/filepath"

	apiv1 "repro/api/v1"
	"repro/internal/aqe"
	"repro/internal/archive"
	"repro/internal/gateway"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Bus exposes the service's stream fabric as a Bus — the local broker
// standalone, the fabric router once Serve joins a replicated fabric. The
// gateway's broadcasters ride this.
func (s *Service) Bus() stream.Bus { return s.bus }

// ServeGateway brings up the public HTTP/JSON edge (api/v1) on addr and
// returns the bound address. Config.Gateway parameterizes it; its Clock and
// Obs default to the service's own, so gateway rate-limit refill follows the
// service clock (deterministic under virtual time) and gateway instruments
// land on the service registry. Stop drains the gateway before the fabric. A
// second call fails.
func (s *Service) ServeGateway(addr string) (string, error) {
	if err := s.claim(&s.gwServing, "ServeGateway"); err != nil {
		return "", err
	}
	gcfg := s.cfg.Gateway
	if gcfg.Clock == nil {
		gcfg.Clock = s.cfg.Clock
	}
	if gcfg.Obs == nil {
		gcfg.Obs = s.obs
	}
	gw := gateway.New(serviceBackend{s}, gcfg)
	bound, err := gw.Serve(addr)
	if err != nil {
		s.release(&s.gwServing)
		return "", err
	}
	s.mu.Lock()
	stopped := s.stopped
	s.gateway = gw
	s.gwAddr = bound
	s.mu.Unlock()
	if stopped { // see claim
		gw.Close()
		return "", errStopped
	}
	return bound, nil
}

// Gateway returns the running public edge, or nil when none was started.
func (s *Service) Gateway() *gateway.Gateway {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gateway
}

// GatewayAddr returns the gateway's bound address ("" when not serving).
func (s *Service) GatewayAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gwAddr
}

// serviceBackend adapts a Service to the gateway.Backend interface: queries
// ride the service's shared prepared-plan cache, latest values come off the
// vertex queues (Delphi-predicted values included), subscriptions ride the bus
// switch (fabric-aware), and retention stats read the archive directory.
type serviceBackend struct{ s *Service }

func (b serviceBackend) Query(sql string) (*aqe.Result, error) { return b.s.engine.Query(sql) }

func (b serviceBackend) Latest(metric string) (telemetry.Info, bool) {
	return b.s.Latest(telemetry.MetricID(metric))
}

func (b serviceBackend) Topics(ctx context.Context) ([]string, error) {
	return b.s.broker.Topics(), nil
}

func (b serviceBackend) Follow(ctx context.Context, metric string, afterID uint64) (stream.Cursor, error) {
	return b.s.bus.Follow(ctx, metric, afterID)
}

func (b serviceBackend) Tail(ctx context.Context, metric string) uint64 {
	e, err := b.s.bus.Latest(ctx, metric)
	if err != nil { // an empty or unknown topic
		return 0
	}
	return e.ID
}

func (b serviceBackend) Degraded() bool { return b.s.Degraded() }

// Retention reports per-metric archive tier stats from the service's
// archive directory (one subdirectory per metric).
func (b serviceBackend) Retention() ([]apiv1.RetentionMetric, error) {
	root := b.s.cfg.ArchiveDir
	if root == "" {
		return nil, gateway.ErrUnavailable
	}
	logs, err := archive.ListLogs(root)
	if err != nil {
		return nil, err
	}
	var out []apiv1.RetentionMetric
	for _, l := range logs {
		m := apiv1.RetentionMetric{Metric: filepath.Base(l.Dir)}
		for t, ts := range l.Tiers {
			if ts.Files == 0 {
				continue
			}
			m.Tiers = append(m.Tiers, apiv1.RetentionTier{
				Tier:             archive.TierNames[t],
				Files:            ts.Files,
				Bytes:            ts.Bytes,
				Records:          int64(ts.Records),
				FirstTimestampNS: ts.FirstTS,
				LastTimestampNS:  ts.LastTS,
			})
		}
		out = append(out, m)
	}
	return out, nil
}

var _ gateway.Backend = serviceBackend{}
