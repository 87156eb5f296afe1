// Package gateway is Apollo's public edge: an HTTP/JSON front door over the
// internal binary fabric, serving the versioned api/v1 contract. It exposes
// AQE queries (riding the shared prepared-plan cache), latest-value and
// topic-listing reads, archive retention stats, and live subscriptions over
// WebSocket and Server-Sent Events, fanned out from one broadcaster per
// topic over a bounded ring of shared frames, with slow-consumer eviction.
// Static bearer tokens authenticate principals; a per-principal token bucket
// rate-limits requests; health/readiness endpoints and graceful drain make
// it a well-behaved fleet citizen (DESIGN.md §4j).
//
// The package knows the backend only through the Backend interface:
// core.Service implements it in-process (apollod -gateway-addr) and
// BusBackend implements it over a dialed stream.Client (cmd/apollo-gateway),
// so the edge runs embedded or as its own tier.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/aqe"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// ErrUnavailable marks a Backend capability the deployment cannot serve
// (e.g. retention stats on a gateway with no local archive); the gateway
// maps it to api/v1 code "unavailable".
var ErrUnavailable = errors.New("gateway: capability unavailable on this backend")

// Backend is everything the gateway needs from the system it fronts.
type Backend interface {
	// Query executes AQE SQL through the backend's shared prepared-plan
	// cache.
	Query(sql string) (*aqe.Result, error)
	// Latest returns the newest tuple of metric.
	Latest(metric string) (telemetry.Info, bool)
	// Topics lists the metric streams the backend serves.
	Topics(ctx context.Context) ([]string, error)
	// Follow opens a cursor on the raw entries of metric with ID > afterID,
	// which ends with ctx (stream.Bus.Follow). The gateway holds one such
	// cursor per subscribed topic, plus one per client still reading
	// history.
	Follow(ctx context.Context, metric string, afterID uint64) (stream.Cursor, error)
	// Tail returns the ID of metric's newest entry, 0 when there is none:
	// where a new topic's broadcaster starts.
	Tail(ctx context.Context, metric string) uint64
	// Degraded reports backend health for the health endpoint.
	Degraded() bool
	// Retention reports per-metric archive tier stats, or ErrUnavailable.
	Retention() ([]apiv1.RetentionMetric, error)
}

// Defaults for Config's zero values.
const (
	// DefaultRate is the per-principal request budget, tokens per second.
	DefaultRate = 100
	// DefaultBurst is the token-bucket capacity.
	DefaultBurst = 200
	// DefaultQueueSize bounds how far a subscriber may trail the live tail,
	// in frames.
	DefaultQueueSize = 256
	// DefaultDrainTimeout bounds graceful shutdown.
	DefaultDrainTimeout = 5 * time.Second
)

// Config parameterizes a Gateway.
type Config struct {
	// Tokens maps static bearer tokens to principal names. Empty leaves the
	// gateway open: every request runs as principal "anonymous" (fine on a
	// loopback dev box, not on a real edge).
	Tokens map[string]string
	// Rate is each principal's sustained request budget in requests/second
	// (0: DefaultRate; negative disables rate limiting).
	Rate float64
	// Burst is the token-bucket capacity (0: DefaultBurst).
	Burst int
	// QueueSize is the length of each topic's ring of shared frames, and so
	// how many frames a subscriber may trail the live tail by before it is
	// evicted (0: DefaultQueueSize).
	QueueSize int
	// DrainTimeout bounds Shutdown's graceful phase (0:
	// DefaultDrainTimeout).
	DrainTimeout time.Duration
	// Clock drives rate-limit refill and drain pacing; nil means wall time.
	// Inject a *sim.Virtual to test refill deterministically.
	Clock sim.Clock
	// Obs instruments the gateway (nil: no instrumentation).
	Obs *obs.Registry
}

// Gateway serves the api/v1 contract over a Backend.
type Gateway struct {
	backend Backend
	cfg     Config
	clock   sim.Clock
	auth    *authenticator
	limits  *limiter
	hub     *hub
	mux     *http.ServeMux

	mu       sync.Mutex
	server   *http.Server
	listener net.Listener
	draining bool

	// Per-route obs latency histograms plus edge counters.
	obsQuerySec     *obs.Histogram
	obsLatestSec    *obs.Histogram
	obsTopicsSec    *obs.Histogram
	obsRetentionSec *obs.Histogram
	obsRequests     *obs.Counter
	obsUnauthorized *obs.Counter
	obsRateLimited  *obs.Counter
}

// New builds a Gateway over backend.
func New(backend Backend, cfg Config) *Gateway {
	clock := sim.Or(cfg.Clock)
	if cfg.Rate == 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	g := &Gateway{
		backend: backend,
		cfg:     cfg,
		clock:   clock,
		auth:    newAuthenticator(cfg.Tokens),
		limits:  newLimiter(clock, cfg.Rate, cfg.Burst),
		hub:     newHub(backend, cfg.QueueSize, cfg.Obs),
	}
	r := cfg.Obs
	g.obsQuerySec = r.Histogram("gateway_query_seconds", obs.DefLatencyBuckets...)
	g.obsLatestSec = r.Histogram("gateway_latest_seconds", obs.DefLatencyBuckets...)
	g.obsTopicsSec = r.Histogram("gateway_topics_seconds", obs.DefLatencyBuckets...)
	g.obsRetentionSec = r.Histogram("gateway_retention_seconds", obs.DefLatencyBuckets...)
	g.obsRequests = r.Counter("gateway_requests_total")
	g.obsUnauthorized = r.Counter("gateway_unauthorized_total")
	g.obsRateLimited = r.Counter("gateway_rate_limited_total")
	g.mux = g.routes()
	return g
}

// routes builds the api/v1 mux. Probes are unauthenticated; everything else
// passes auth + rate limiting.
func (g *Gateway) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+apiv1.PathHealthz, g.handleHealthz)
	mux.HandleFunc("GET "+apiv1.PathReadyz, g.handleReadyz)
	mux.Handle("POST "+apiv1.PathQuery, g.guard(g.obsQuerySec, g.handleQuery))
	mux.Handle("GET "+apiv1.PathTopics, g.guard(g.obsTopicsSec, g.handleTopics))
	mux.Handle("GET "+apiv1.PathLatest, g.guard(g.obsLatestSec, g.handleLatest))
	mux.Handle("GET "+apiv1.PathRetention, g.guard(g.obsRetentionSec, g.handleRetention))
	mux.Handle("GET "+apiv1.PathSubscribe, g.guard(nil, g.handleSubscribe))
	return mux
}

// guard wraps h with authentication, rate limiting, and (when hist is
// non-nil) a per-route latency observation. The resolved principal rides the
// request context.
func (g *Gateway) guard(hist *obs.Histogram, h func(http.ResponseWriter, *http.Request, string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.obsRequests.Inc()
		principal, ok := g.auth.principal(r)
		if !ok {
			g.obsUnauthorized.Inc()
			writeError(w, apiv1.Errorf(apiv1.CodeUnauthorized, false, "missing or unknown bearer token"))
			return
		}
		if g.isDraining() {
			writeError(w, apiv1.Errorf(apiv1.CodeDraining, true, "gateway draining"))
			return
		}
		if wait, ok := g.limits.allow(principal); !ok {
			g.obsRateLimited.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(wait/time.Second)+1))
			writeError(w, apiv1.Errorf(apiv1.CodeRateLimited, true, "principal %q over budget", principal))
			return
		}
		if hist != nil {
			start := time.Now()
			defer func() { hist.ObserveDuration(time.Since(start)) }()
		}
		h(w, r, principal)
	})
}

// Serve listens on addr and serves until Shutdown/Close; it returns the
// bound address ("host:0" picks a port).
func (g *Gateway) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gateway: %w", err)
	}
	srv := &http.Server{Handler: g.mux}
	g.mu.Lock()
	g.server = srv
	g.listener = ln
	g.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func (g *Gateway) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Shutdown drains the gateway gracefully: readiness flips to 503, every
// live subscription receives a goaway frame and is closed, and in-flight
// HTTP requests get up to Config.DrainTimeout (bounded further by ctx) to
// finish. Safe to call more than once.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	srv, ln := g.server, g.listener
	g.mu.Unlock()
	dctx, cancel := context.WithTimeout(ctx, g.cfg.DrainTimeout)
	defer cancel()
	g.hub.drain(dctx)
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(dctx)
	ln.Close() // see Close
	return err
}

// Close tears the gateway down immediately (tests, error paths). It closes
// the listener itself as well, since the server closes only the listeners
// its Serve goroutine has reached.
func (g *Gateway) Close() {
	g.mu.Lock()
	srv, ln := g.server, g.listener
	g.mu.Unlock()
	g.hub.drain(context.Background())
	if srv != nil {
		srv.Close()
		ln.Close()
	}
}

// Attach adds one subscriber to metric's broadcaster without a transport —
// the entry point the WS/SSE handlers, the deterministic load scenario, and
// tests share. The subscription ends with ctx, Close, eviction or drain. See
// hub.attach.
func (g *Gateway) Attach(ctx context.Context, principal, metric string, afterID uint64) (*Subscriber, error) {
	if g.isDraining() {
		return nil, apiv1.Errorf(apiv1.CodeDraining, true, "gateway draining")
	}
	return g.hub.attach(ctx, principal, metric, afterID)
}

// tupleFromInfo renders an internal tuple on the public contract.
func tupleFromInfo(in telemetry.Info, streamID uint64) apiv1.Tuple {
	return apiv1.Tuple{
		Metric:      string(in.Metric),
		TimestampNS: in.Timestamp,
		Value:       in.Value,
		Kind:        in.Kind.String(),
		Source:      in.Source.String(),
		StreamID:    streamID,
	}
}
