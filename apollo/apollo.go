// Package apollo is the public API of the Apollo reproduction: an
// ML-assisted, real-time, low-latency storage resource observer (Rajesh et
// al., HPDC '21). It re-exports the service facade over the internal
// subsystems — SCoRe (the distributed Fact/Insight DAG), the Pub-Sub stream
// fabric, the adaptive monitoring-interval controllers, the Delphi
// predictive model, and the Apollo Query Engine.
//
// Quickstart:
//
//	svc := apollo.New(apollo.Config{Mode: apollo.IntervalSimpleAIMD})
//	svc.RegisterMetric(apollo.HookFunc{
//		ID: "node1.nvme0.capacity",
//		Fn: func() (float64, error) { return readCapacity(), nil },
//	})
//	svc.Start()
//	defer svc.Stop()
//	res, _ := svc.Query("SELECT MAX(Timestamp), metric FROM node1.nvme0.capacity")
package apollo

import (
	"net/http"
	"time"

	"repro/internal/adaptive"
	"repro/internal/aqe"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/delphi"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Core service types.
type (
	// Service is a running Apollo instance.
	Service = core.Service
	// Config configures a Service.
	Config = core.Config
	// IntervalMode selects the polling strategy.
	IntervalMode = core.IntervalMode
	// MetricOption customizes one registered metric.
	MetricOption = core.MetricOption
	// Retention is the tiered archive age policy (DESIGN.md §4i): raw →
	// 10s rollups → 1m rollups → dropped. Service-wide default via
	// Config.ArchiveRetention, per-metric override via WithMetricRetention.
	Retention = archive.Retention
)

// WithMetricRetention overrides Config.ArchiveRetention for one metric.
func WithMetricRetention(r Retention) MetricOption { return core.WithMetricRetention(r) }

// ParseRetention parses the CLI retention syntax "raw=15m,10s=2h,1m=24h".
func ParseRetention(s string) (Retention, error) { return archive.ParseRetention(s) }

// Telemetry types.
type (
	// Info is the Information tuple (timestamp, value, predicted/measured).
	Info = telemetry.Info
	// MetricID names a metric stream.
	MetricID = telemetry.MetricID
	// Kind distinguishes Facts from Insights.
	Kind = telemetry.Kind
	// Source distinguishes measured from predicted values.
	Source = telemetry.Source
)

// Stream fabric types: the context-aware Pub-Sub Bus. Broker (in-process)
// and Client (TCP) both satisfy Bus, so vertices and tools run unchanged
// over either transport. Publisher is the write-side subset — implemented
// additionally by score.BufferedPublisher for store-and-forward delivery.
type (
	// Bus is the unified read/write stream interface (Broker and Client).
	Bus = stream.Bus
	// Cursor is a subscription the consumer drives itself: Bus.Follow opens
	// one, Next blocks for the next run of entries.
	Cursor = stream.Cursor
	// Publisher is the write-side of the Bus: PublishBatch (one tuple is a
	// batch of one).
	Publisher = stream.Publisher
	// Broker is the in-process Pub-Sub fabric.
	Broker = stream.Broker
	// StreamClient is the TCP client for a remote fabric; it satisfies Bus.
	StreamClient = stream.Client
	// StreamEntry is one published record (ID + payload).
	StreamEntry = stream.Entry
	// PublishResult resolves an async (coalesced) publish.
	PublishResult = stream.PublishResult
	// StreamServer serves a Broker over TCP; dial it with DialStream.
	StreamServer = stream.Server
	// BufferedPublisher wraps a Publisher with store-and-forward buffering.
	BufferedPublisher = score.BufferedPublisher
)

// NewBroker builds an in-process stream broker. retention bounds each
// topic's ring (0: default).
func NewBroker(retention int) *Broker { return stream.NewBroker(retention) }

// ServeStream exposes a broker over TCP on addr ("host:0" picks a port;
// read it back with Server.Addr). Close the server before the broker.
func ServeStream(addr string, b *Broker) (*StreamServer, error) {
	return stream.Serve(b, addr)
}

// DialStream connects to a remote fabric served with ServeStream (apollod
// uses it under -listen).
func DialStream(addr string, opts ...stream.Option) (*StreamClient, error) {
	return stream.Dial(addr, opts...)
}

// WithCoalesce tunes the client's group-commit coalescer: PublishAsync
// tuples flush when maxBatch accumulate or maxDelay elapses.
func WithCoalesce(maxBatch int, maxDelay time.Duration) stream.Option {
	return stream.WithCoalesce(maxBatch, maxDelay)
}

// NewBufferedPublisher wraps pub with a store-and-forward buffer: transient
// publish failures are buffered (up to capacity) and flushed in batches on
// the next successful publish.
func NewBufferedPublisher(pub Publisher, topic string, capacity, failAfter int) *BufferedPublisher {
	return score.NewBufferedPublisher(pub, topic, capacity, failAfter)
}

// Gateway types: the public HTTP/JSON edge serving the api/v1 contract
// (queries, latest values, WebSocket/SSE subscriptions) with bearer-token
// auth, per-principal rate limits, and slow-consumer eviction.
type (
	// Gateway is the running public edge; Service.Gateway returns it.
	Gateway = gateway.Gateway
	// GatewayConfig parameterizes the edge (tokens, rate, burst, queue).
	GatewayConfig = gateway.Config
)

// Hook types.
type (
	// Hook extracts one metric from a resource.
	Hook = score.Hook
	// HookFunc adapts a function to Hook.
	HookFunc = score.HookFunc
	// ReplayHook replays a captured trace.
	ReplayHook = score.ReplayHook
	// Builder derives an Insight from the latest tuple of every input:
	// inputs[i] is the latest tuple of the i-th input given to
	// RegisterInsight, so a Builder that folds in slice order is
	// deterministic. The slice is the vertex's working state, passed without
	// a copy: it is valid for the call only and must be neither retained nor
	// modified.
	Builder = score.Builder
)

// Health types: per-vertex publish-path health exposed by Service.Health.
type (
	// HealthSnapshot is a point-in-time view of one vertex's health.
	HealthSnapshot = score.HealthSnapshot
	// HealthState classifies a vertex: HealthOK, HealthDegraded, HealthFailed.
	HealthState = score.HealthState
)

// Health states.
const (
	HealthOK       = score.HealthOK
	HealthDegraded = score.HealthDegraded
	HealthFailed   = score.HealthFailed
)

// Observability types: every subsystem registers counters, gauges, and
// latency histograms on the service's obs registry. Service.Metrics returns
// a Snapshot; Service.Obs exposes the registry for the HTTP endpoint
// (obs.Handler) or custom instruments.
type (
	// Metrics is a point-in-time snapshot of every registered instrument.
	Metrics = obs.Snapshot
	// MetricsRegistry holds live instruments; pass one in Config.Obs to
	// aggregate several services, or serve it with MetricsHandler.
	MetricsRegistry = obs.Registry
	// HistogramSnapshot is one latency histogram inside Metrics.
	HistogramSnapshot = obs.HistogramSnapshot
)

// NewMetricsRegistry builds a standalone metrics registry for Config.Obs.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsHandler serves a registry in Prometheus text exposition format.
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// Adaptive-interval types.
type (
	// AdaptiveConfig parameterizes the AIMD controllers.
	AdaptiveConfig = adaptive.Config
	// Controller chooses the next polling interval.
	Controller = adaptive.Controller
)

// Delphi types.
type (
	// DelphiModel is the trained predictive model.
	DelphiModel = delphi.Model
	// DelphiTrainOptions controls training.
	DelphiTrainOptions = delphi.TrainOptions
)

// Query types.
type (
	// Result is an AQE query result.
	Result = aqe.Result
	// Cell is one result value.
	Cell = aqe.Cell
)

// Clock abstraction (real or simulated time).
type (
	// Clock drives polling, backoff, and timestamps across every layer
	// (alias of sim.Clock).
	Clock = sim.Clock
	// SimClock is a manually-advanced virtual clock for replay and
	// deterministic simulation (alias of sim.Virtual).
	SimClock = sim.Virtual
)

// Interval modes.
const (
	IntervalFixed       = core.IntervalFixed
	IntervalSimpleAIMD  = core.IntervalSimpleAIMD
	IntervalComplexAIMD = core.IntervalComplexAIMD
	// IntervalEntropy is the permutation-entropy heuristic the paper lists
	// as future work (§6), included as an extension.
	IntervalEntropy = core.IntervalEntropy
)

// Tuple kinds and sources.
const (
	KindFact    = telemetry.KindFact
	KindInsight = telemetry.KindInsight
	Measured    = telemetry.Measured
	Predicted   = telemetry.Predicted
)

// New builds an Apollo service.
func New(cfg Config) *Service { return core.New(cfg) }

// NewFact builds a measured Fact tuple.
func NewFact(m MetricID, ts int64, v float64) Info { return telemetry.NewFact(m, ts, v) }

// DefaultAdaptiveConfig mirrors the paper's evaluation setup: 1 s initial
// interval in [1 s, 60 s], +1 s additive growth, halving on change,
// rolling-average window 10.
func DefaultAdaptiveConfig() AdaptiveConfig { return adaptive.DefaultConfig() }

// TrainDelphi trains the Delphi model on synthetic time-series features
// (§3.4.2). Training takes seconds; pass the model in Config.Delphi.
func TrainDelphi(opts DelphiTrainOptions) (*DelphiModel, error) { return delphi.Train(opts) }

// LoadDelphi loads a model saved with (*DelphiModel).Save.
func LoadDelphi(path string) (*DelphiModel, error) { return delphi.Load(path) }

// NewSimClock returns a simulated clock for deterministic replay.
func NewSimClock(start time.Time) *SimClock { return sim.NewVirtual(start) }

// Aggregation builders for RegisterInsight.
var (
	// SumInsight totals its inputs (e.g. cluster-wide remaining capacity).
	SumInsight Builder = score.Sum
	// MeanInsight averages its inputs.
	MeanInsight Builder = score.Mean
	// MinInsight takes the smallest input.
	MinInsight Builder = score.Min
	// MaxInsight takes the largest input.
	MaxInsight Builder = score.Max
)
