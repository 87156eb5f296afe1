// Package core assembles Apollo, the paper's primary contribution: an
// ML-assisted, real-time, low-latency storage resource observer. A Service
// owns the Pub-Sub fabric (stream broker), the SCoRe DAG of Fact and Insight
// vertices, the Apollo Query Engine, the adaptive-interval controllers, and
// optionally the Delphi predictive model; middleware libraries talk to it
// through Query/Latest/Subscribe.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/aqe"
	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/delphi"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// IntervalMode selects the polling-interval strategy for registered metrics.
type IntervalMode int

// Interval modes (§3.4.1).
const (
	// IntervalFixed polls at Config.Adaptive.Initial forever.
	IntervalFixed IntervalMode = iota
	// IntervalSimpleAIMD uses the simple parameterized method.
	IntervalSimpleAIMD
	// IntervalComplexAIMD uses the adaptive parameterized method
	// (rolling-average window).
	IntervalComplexAIMD
	// IntervalEntropy uses the permutation-entropy heuristic the paper
	// proposes as future work (§6).
	IntervalEntropy
)

var modeNames = [...]string{"fixed", "simple-aimd", "complex-aimd", "entropy"}

// String names the mode.
func (m IntervalMode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return "mode(?)"
	}
	return modeNames[m]
}

// MarshalText and UnmarshalText make the String names the mode's text form
// (flag.TextVar, encoding/json).
func (m IntervalMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText is the inverse of String; it rejects unknown names.
func (m *IntervalMode) UnmarshalText(text []byte) error {
	for i, name := range modeNames {
		if name == string(text) {
			*m = IntervalMode(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown interval mode %q", text)
}

// Config configures an Apollo service.
type Config struct {
	// Clock drives all polling; nil means the wall clock. Inject a
	// *sim.Virtual to run the whole service on deterministic virtual time.
	Clock sim.Clock
	// Retention bounds each metric's broker topic (0: default).
	Retention int
	// Mode picks the interval controller for registered metrics.
	Mode IntervalMode
	// Adaptive parameterizes the controllers (zero value: defaults).
	Adaptive adaptive.Config
	// Delphi, if non-nil, enables predicted values between polls.
	Delphi *delphi.Model
	// Deprecated: DelphiBatch is ignored. Service.PredictAll reads the
	// forecast each vertex already made, so there is no sweep to size.
	DelphiBatch int
	// DelphiRegistry, if set, is the directory of the versioned per-class
	// model store: metrics shard into device classes (DeviceClass), each
	// class serves the registry's active model version (falling back to
	// Delphi for classes with no lineage yet), and promotions/rollbacks land
	// atomically. Empty: one class "default" serving Delphi.
	DelphiRegistry string
	// DelphiRetrain, if > 0, arms per-metric drift detectors on every
	// Delphi-enabled vertex and — when DelphiRegistry is also set — runs the
	// background retrainer at this cadence: tripped classes fall back to
	// measured-only, retrain off the hot path, and are promoted only when a
	// candidate beats the serving model on held-out live data.
	DelphiRetrain time.Duration
	// BaseTick is the target resolution Delphi restores (default 1s).
	BaseTick time.Duration
	// ArchiveDir, if set, persists evicted queue entries per metric.
	ArchiveDir string
	// ArchiveRetention is the default tiered retention policy for every
	// metric archive: raw records age into 10s rollups, then 1m rollups,
	// then out entirely (see archive.Retention). The zero value keeps
	// everything at full resolution forever (sealed segments are still
	// compressed).
	ArchiveRetention archive.Retention
	// ArchiveSegmentBytes caps each archive segment file
	// (0: archive.DefaultSegmentBytes). A sealed segment is what the
	// compactor rolls up and expires, so a log that fills its first segment
	// slowly shows none of that until it does.
	ArchiveSegmentBytes int64
	// CompactInterval is how often the background archive compactor runs
	// when ArchiveDir is set (0: archive.DefaultCompactInterval). It runs on
	// Clock, so virtual-time scenarios compact deterministically.
	CompactInterval time.Duration
	// HistorySize bounds per-vertex in-memory queues (0: default).
	HistorySize int
	// Obs is the metrics registry instrumenting the service; nil means a
	// fresh per-service registry. Share one registry to aggregate several
	// services into one exposition endpoint.
	Obs *obs.Registry

	// NodeID names this broker in a replicated fabric; empty (the default)
	// runs the service standalone. With a NodeID set, Serve also brings up a
	// stream.FabricNode: topics are placed on the ring of {self} ∪ Peers,
	// publishes are accepted only under a leader lease and replicated to a
	// quorum, and vertex publishes route through the fabric transparently.
	NodeID string
	// Peers maps the other fabric members' node IDs to their advertised
	// stream addresses. All members must agree on the full member list; the
	// lexicographically smallest node ID acts as the lease coordinator.
	Peers map[string]string
	// Replicas is the per-topic replication factor, leader included
	// (0: stream.DefaultReplicationFactor).
	Replicas int
	// LeaseTTL bounds leader leases; a follower may promote itself this long
	// after the leader stops renewing (0: cluster.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// ReplicaLagMax marks a topic's health Degraded when its slowest
	// follower trails the leader by more than this many entries
	// (0: DefaultReplicaLagMax).
	ReplicaLagMax uint64

	// GatewayAddr, if set, serves the public HTTP/JSON edge (the api/v1
	// contract: queries, latest values, WebSocket/SSE subscriptions) on this
	// address when the service starts. Empty keeps the public edge off.
	GatewayAddr string
	// Gateway parameterizes the public edge when GatewayAddr is set (auth
	// tokens, rate limits, queue bounds). Its Clock and Obs default to the
	// service's own.
	Gateway gateway.Config
}

// DefaultReplicaLagMax is the follower-lag threshold (entries behind the
// leader) above which Health reports a replicated topic Degraded.
const DefaultReplicaLagMax = 64

// Service is a running Apollo instance.
type Service struct {
	cfg    Config
	broker *stream.Broker
	graph  *score.Graph
	engine *aqe.Engine
	obs    *obs.Registry
	bus    *busSwitch

	compactor *archive.Compactor

	fleet    *delphiFleet // device-class model shards, nil unless Delphi or DelphiRegistry is set
	fleetErr error        // deferred to Start: New cannot return an error

	mu        sync.Mutex
	archives  []*archive.Log
	server    *stream.Server
	fabric    *stream.FabricNode
	leaseConn *stream.Client
	gateway   *gateway.Gateway
	gwAddr    string
	serving   bool // Serve holds its slot
	gwServing bool // ServeGateway holds its slot
	started   bool
	stopped   bool
}

// busSwitch is the Bus handed to every vertex. Standalone it is the local
// broker; when Serve brings a fabric up it is re-pointed at the fabric
// router, so vertex publishes reach the per-topic leader (and reads the
// local replica) without re-wiring already-registered vertices.
type busSwitch struct {
	mu  sync.RWMutex
	bus stream.Bus
}

func (b *busSwitch) get() stream.Bus {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.bus
}

func (b *busSwitch) set(bus stream.Bus) {
	b.mu.Lock()
	b.bus = bus
	b.mu.Unlock()
}

func (b *busSwitch) PublishBatch(ctx context.Context, topic string, p [][]byte) (uint64, error) {
	return b.get().PublishBatch(ctx, topic, p)
}

func (b *busSwitch) Latest(ctx context.Context, topic string) (stream.Entry, error) {
	return b.get().Latest(ctx, topic)
}

func (b *busSwitch) Range(ctx context.Context, topic string, from, to uint64, max int) ([]stream.Entry, error) {
	return b.get().Range(ctx, topic, from, to, max)
}

func (b *busSwitch) Follow(ctx context.Context, topic string, afterID uint64) (stream.Cursor, error) {
	return b.get().Follow(ctx, topic, afterID)
}

var _ stream.Bus = (*busSwitch)(nil)

// New builds an Apollo service.
func New(cfg Config) *Service {
	cfg.Clock = sim.Or(cfg.Clock)
	if cfg.BaseTick <= 0 {
		cfg.BaseTick = time.Second
	}
	if cfg.Adaptive == (adaptive.Config{}) {
		cfg.Adaptive = adaptive.DefaultConfig()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &Service{
		cfg:    cfg,
		broker: stream.NewBroker(cfg.Retention),
		graph:  score.NewGraph(),
		obs:    cfg.Obs,
	}
	s.bus = &busSwitch{bus: s.broker}
	if cfg.ArchiveDir != "" {
		s.compactor = archive.NewCompactor(cfg.Clock, cfg.CompactInterval)
	}
	s.broker.Instrument(s.obs)
	s.engine = aqe.NewEngine(aqe.GraphResolver{Graph: s.graph})
	s.engine.Instrument(s.obs)
	if cfg.Delphi != nil || cfg.DelphiRegistry != "" {
		s.fleet, s.fleetErr = newDelphiFleet(cfg, s.obs)
	}
	return s
}

// Broker exposes the Pub-Sub fabric.
func (s *Service) Broker() *stream.Broker { return s.broker }

// newController builds the configured interval controller.
func (s *Service) newController() (adaptive.Controller, error) {
	switch s.cfg.Mode {
	case IntervalFixed:
		return adaptive.NewFixed(s.cfg.Adaptive.Initial), nil
	case IntervalSimpleAIMD:
		return adaptive.NewSimpleAIMD(s.cfg.Adaptive)
	case IntervalComplexAIMD:
		return adaptive.NewComplexAIMD(s.cfg.Adaptive)
	case IntervalEntropy:
		return adaptive.NewEntropyAIMD(s.cfg.Adaptive, 3)
	default:
		return nil, fmt.Errorf("core: unknown interval mode %d", s.cfg.Mode)
	}
}

// MetricOption customizes one registered metric's vertex config.
type MetricOption func(*score.FactConfig)

// WithoutDelphi disables prediction for this metric even when the service
// has a model.
func WithoutDelphi() MetricOption {
	return func(r *score.FactConfig) { r.Delphi = nil }
}

// WithPublishUnchanged disables the only-on-change filter for this metric.
func WithPublishUnchanged() MetricOption {
	return func(r *score.FactConfig) { r.PublishUnchanged = true }
}

// RegisterMetric deploys a Fact Vertex for hook. Safe before or after Start;
// vertices registered after Start are started immediately.
func (s *Service) RegisterMetric(hook score.Hook, opts ...MetricOption) (*score.FactVertex, error) {
	if hook == nil {
		return nil, fmt.Errorf("%w: hook is required", score.ErrVertexConfig)
	}
	id := hook.Metric()
	// Before the archive is opened: a second archive.Open on a live metric's
	// directory would put a second writer on the first vertex's segments.
	if _, dup := s.graph.Lookup(id); dup {
		return nil, fmt.Errorf("core: metric %q already registered", id)
	}
	ctrl, err := s.newController()
	if err != nil {
		return nil, err
	}
	reg := score.FactConfig{
		Hook:        hook,
		Bus:         s.bus,
		Controller:  ctrl,
		Clock:       s.cfg.Clock,
		HistorySize: s.cfg.HistorySize,
		BaseTick:    s.cfg.BaseTick,
		Obs:         s.obs,
	}
	var cls *deviceClass
	if s.fleet != nil {
		cls = s.fleet.classFor(s.fleet.className(id))
		reg.Delphi = cls.newOnline()
	}
	for _, o := range opts {
		o(&reg)
	}
	// After opts, so WithoutDelphi leaves no dangling drift machinery.
	var det *delphi.Detector
	if reg.Delphi != nil && s.cfg.DelphiRetrain > 0 {
		det = delphi.NewDetector()
		reg.Drift = det
		if s.fleet.retrains() {
			reg.OnDrift = func(telemetry.MetricID) { s.fleet.enqueue(cls) }
		}
	}
	if s.cfg.ArchiveDir != "" {
		reg.Archive, err = archive.Open(filepath.Join(s.cfg.ArchiveDir, string(id)), archive.Options{SegmentBytes: s.cfg.ArchiveSegmentBytes})
		if err != nil {
			return nil, err
		}
		reg.Archive.Instrument(s.obs, string(id))
	}
	v, err := score.NewFactVertex(reg)
	if err == nil {
		err = s.graph.RegisterFact(v)
	}
	if err != nil {
		// A concurrent registration of the same ID can still win the graph
		// slot; the log was never enrolled, so closing it is the whole undo.
		if reg.Archive != nil {
			reg.Archive.Close()
		}
		return nil, err
	}
	if reg.Archive != nil {
		s.mu.Lock()
		s.archives = append(s.archives, reg.Archive)
		s.mu.Unlock()
		s.compactor.Add(reg.Archive, s.cfg.ArchiveRetention)
	}
	// After opts, so WithoutDelphi keeps the metric out of its device class.
	if reg.Delphi != nil {
		cls.attach(id, reg.Delphi, det, v)
	}
	if s.isStarted() {
		if err := v.Start(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// RegisterInsight deploys an Insight Vertex deriving id from inputs.
func (s *Service) RegisterInsight(id telemetry.MetricID, inputs []telemetry.MetricID, b score.Builder) (*score.InsightVertex, error) {
	v, err := score.NewInsightVertex(score.InsightConfig{
		Metric:      id,
		Inputs:      inputs,
		Builder:     b,
		Bus:         s.bus,
		Clock:       s.cfg.Clock,
		HistorySize: s.cfg.HistorySize,
		Obs:         s.obs,
	})
	if err != nil {
		return nil, err
	}
	if err := s.graph.RegisterInsight(v); err != nil {
		return nil, err
	}
	if s.isStarted() {
		if err := v.Start(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Unregister removes a vertex at runtime (§3.1).
func (s *Service) Unregister(id telemetry.MetricID) bool { return s.graph.Unregister(id) }

func (s *Service) isStarted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.stopped
}

// Start launches every registered vertex and, when Config.GatewayAddr is
// set, the public HTTP gateway.
func (s *Service) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("core: service already started")
	}
	s.started = true
	s.mu.Unlock()
	if s.fleetErr != nil {
		return fmt.Errorf("core: delphi registry: %w", s.fleetErr)
	}
	if s.fleet != nil {
		s.fleet.start()
	}
	if s.compactor != nil {
		s.compactor.Start()
	}
	if s.cfg.GatewayAddr != "" {
		if _, err := s.ServeGateway(s.cfg.GatewayAddr); err != nil {
			return err
		}
	}
	return s.graph.StartAll()
}

// Stop terminates all vertices, the fabric node, the TCP endpoint, and
// archives.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	server := s.server
	fabric := s.fabric
	leaseConn := s.leaseConn
	archives := s.archives
	gw := s.gateway
	s.mu.Unlock()
	if gw != nil {
		// Drain the public edge first: subscribers get goaway frames while
		// the bus underneath is still alive.
		gw.Shutdown(context.Background())
	}
	s.graph.StopAll()
	if s.compactor != nil {
		s.compactor.Stop() // before the archives close under it
	}
	stopServing(fabric, server, leaseConn)
	s.broker.Close()
	for _, a := range archives {
		a.Close()
	}
	if s.fleet != nil {
		s.fleet.stop()
	}
}

// Serve exposes the Pub-Sub fabric over TCP so remote vertices and clients
// can attach; it returns the bound address. With Config.NodeID set it also
// joins the replicated broker fabric: the bound address is this node's
// advertised address on the ring, the server starts answering replication
// and topology ops, and vertex publishes re-route through the fabric. A
// second call fails: a service serves one fabric address.
func (s *Service) Serve(addr string) (string, error) {
	if err := s.claim(&s.serving, "Serve"); err != nil {
		return "", err
	}
	srv, err := stream.Serve(s.broker, addr, stream.WithServerObs(s.obs))
	if err != nil {
		s.release(&s.serving)
		return "", err
	}
	var node *stream.FabricNode
	if s.cfg.NodeID != "" {
		if node, err = s.startFabric(srv.Addr()); err != nil {
			srv.Close()
			s.release(&s.serving)
			return "", err
		}
		srv.SetFabric(node)
		s.bus.set(node.Route())
	}
	s.mu.Lock()
	stopped, leaseConn := s.stopped, s.leaseConn
	s.server = srv
	s.mu.Unlock()
	if stopped { // Stop ran while this call was binding and may have missed what it started
		stopServing(node, srv, leaseConn)
		return "", errStopped
	}
	return srv.Addr(), nil
}

// stopServing stops what Serve started, any of it nil; each part may have
// been stopped already.
func stopServing(fabric *stream.FabricNode, server *stream.Server, leaseConn *stream.Client) {
	if fabric != nil {
		fabric.Stop()
	}
	if server != nil {
		server.Close()
	}
	if leaseConn != nil {
		leaseConn.Close()
	}
}

// errStopped is what Serve and ServeGateway return once Stop has run.
var errStopped = errors.New("core: service stopped")

// claim takes one of the service's listener slots (Serve's or ServeGateway's)
// under s.mu, before its caller binds anything, so that of two calls,
// concurrent or not, one serves and the other fails; after Stop both fail.
// A Stop that runs while the caller binds is seen when the caller records
// its server, under s.mu, and closes it.
func (s *Service) claim(slot *bool, what string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return errStopped
	}
	if *slot {
		return fmt.Errorf("core: %s already called", what)
	}
	*slot = true
	return nil
}

// release gives back a slot whose listener failed to start.
func (s *Service) release(slot *bool) {
	s.mu.Lock()
	*slot = false
	s.mu.Unlock()
}

// startFabric assembles and starts this node's FabricNode: the placement
// ring over {self} ∪ Peers, and the lease service — a local table when this
// node is the coordinator (lowest node ID), a lazily-dialed RemoteLeases
// proxy otherwise, so members may come up in any order.
func (s *Service) startFabric(bound string) (*stream.FabricNode, error) {
	ids := []string{s.cfg.NodeID}
	ring := cluster.NewRing(0)
	ring.Join(s.cfg.NodeID, bound)
	for id, peerAddr := range s.cfg.Peers {
		if id == s.cfg.NodeID {
			continue
		}
		ring.Join(id, peerAddr)
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ttl := s.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = cluster.DefaultLeaseTTL
	}
	var leases cluster.LeaseService
	if coord := ids[0]; coord == s.cfg.NodeID {
		leases = cluster.NewLeaseTable(s.cfg.Clock, ttl)
	} else {
		lc := stream.NewClient(s.cfg.Peers[coord])
		s.mu.Lock()
		s.leaseConn = lc
		s.mu.Unlock()
		leases = stream.NewRemoteLeases(lc)
	}
	node, err := stream.NewFabricNode(stream.FabricConfig{
		ID:                s.cfg.NodeID,
		Broker:            s.broker,
		Ring:              ring,
		Leases:            leases,
		ReplicationFactor: s.cfg.Replicas,
		LeaseTTL:          ttl,
		Clock:             s.cfg.Clock,
		Obs:               s.obs,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.fabric = node
	s.mu.Unlock()
	node.Start()
	return node, nil
}

// Fabric returns this node's fabric membership, or nil standalone.
func (s *Service) Fabric() *stream.FabricNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fabric
}

// Replication reports per-topic replication status — leader, epoch, and
// follower lag (lag is known on the leader) — or nil standalone.
func (s *Service) Replication() []stream.ReplicaStatus {
	if f := s.Fabric(); f != nil {
		return f.Status()
	}
	return nil
}

// Health reports per-vertex publish-path health (OK / Degraded / Failed,
// consecutive-error counts, store-and-forward backlog, last flush), so
// operators and the AQE can see a vertex degrading while the fabric is
// unreachable instead of silently losing data.
//
// In a replicated fabric each topic's snapshot additionally carries its
// replication Epoch and ReplicaLag; a leader whose slowest follower trails
// by more than Config.ReplicaLagMax entries is reported Degraded even when
// its publish path is healthy, and replicated topics without a local vertex
// appear too.
func (s *Service) Health() map[telemetry.MetricID]score.HealthSnapshot {
	h := s.graph.Health()
	f := s.Fabric()
	if f == nil {
		return h
	}
	lagMax := s.cfg.ReplicaLagMax
	if lagMax == 0 {
		lagMax = DefaultReplicaLagMax
	}
	for _, st := range f.Status() {
		id := telemetry.MetricID(st.Topic)
		snap := h[id]
		snap.Epoch = st.Epoch
		snap.ReplicaLag = st.Lag
		if st.IsLeader && st.Lag > lagMax && snap.State == score.HealthOK {
			snap.State = score.HealthDegraded
			if snap.LastError == "" {
				snap.LastError = fmt.Sprintf("replication lag %d exceeds %d", st.Lag, lagMax)
			}
		}
		h[id] = snap
	}
	return h
}

// Obs returns the service's metrics registry (for the HTTP exposition
// endpoint and custom instruments).
func (s *Service) Obs() *obs.Registry { return s.obs }

// Metrics returns a point-in-time snapshot of every instrument registered on
// the service's obs registry — the programmatic companion to the /metrics
// endpoint, next to Health.
func (s *Service) Metrics() obs.Snapshot { return s.obs.Snapshot() }

// BatchResult is one metric's forecast from a PredictAll sweep. OK mirrors
// Online.Predict: false means no forecast (window not yet full, no trained
// model, or measured-only fallback) and Value is a last-value-hold (or 0 with
// no observations at all).
type BatchResult struct {
	Metric telemetry.MetricID
	Value  float64
	OK     bool
}

// PredictAll returns a forecast per Delphi-enabled metric registered on the
// service — classes in name order, metrics in registration order within a
// class — each what the vertex's own Online.Predict returns at this instant:
// in steady state the forecast the vertex made at its last poll, so a sweep
// runs no forward pass. It returns nil when the service has no Delphi-enabled
// metric. Vertices keep observing concurrently.
func (s *Service) PredictAll() []BatchResult {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.predictAll()
}

// Degraded reports whether any registered vertex (or, in a fabric, any
// locally-led replicated topic) is not HealthOK.
func (s *Service) Degraded() bool {
	for _, h := range s.Health() {
		if h.State != score.HealthOK {
			return true
		}
	}
	return false
}

// Query runs an AQE query (SELECT ... [UNION ...]).
func (s *Service) Query(sql string) (*aqe.Result, error) { return s.engine.Query(sql) }

// Engine exposes the query engine.
func (s *Service) Engine() *aqe.Engine { return s.engine }

// Latest returns the newest tuple of a metric from its vertex queue.
func (s *Service) Latest(id telemetry.MetricID) (telemetry.Info, bool) {
	v, ok := s.graph.Lookup(id)
	if !ok {
		return telemetry.Info{}, false
	}
	return v.Latest()
}

// Subscribe streams decoded tuples of a metric until ctx ends.
func (s *Service) Subscribe(ctx context.Context, id telemetry.MetricID) (<-chan telemetry.Info, error) {
	cur, err := s.broker.Follow(ctx, string(id), 0)
	if err != nil {
		return nil, err
	}
	// 64: a reader a burst behind does not yet stall the decode loop.
	out := make(chan telemetry.Info, 64)
	go func() {
		defer close(out)
		var in telemetry.Info // decoded over: one metric, so its string is kept
		for run, err := cur.Next(); err == nil; run, err = cur.Next() {
			for _, e := range run {
				if in.UnmarshalBinary(e.Payload) == nil {
					select {
					case out <- in:
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}()
	return out, nil
}
