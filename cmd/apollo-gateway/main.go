// Command apollo-gateway runs Apollo's public edge as its own tier: an
// HTTP/JSON gateway serving the versioned api/v1 contract — AQE queries,
// latest values, topic listings, and live WebSocket/SSE subscriptions —
// over a dialed stream fabric (apollod's -listen address). Run it next to
// the daemon, or scale it out horizontally: each gateway carries its own
// prepared-plan cache and one broadcaster (one fabric subscription) per
// subscribed topic; the fabric underneath is shared.
//
// Usage:
//
//	apollo-gateway -listen 127.0.0.1:8080 -backend 127.0.0.1:7070
//	apollo-gateway -listen :8080 -backend 127.0.0.1:7070 \
//	    -tokens s3cret=alice,tok2=bob -rate 50 -burst 100
//
// Try it:
//
//	curl -s -X POST http://127.0.0.1:8080/api/v1/query \
//	    -d '{"query":"SELECT MAX(Value) FROM cluster.capacity"}'
//	curl -N http://127.0.0.1:8080/api/v1/subscribe/cluster.capacity
//
// SIGTERM drains gracefully: readiness flips to 503, live subscriptions get
// a goaway frame, and in-flight requests finish within -drain-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/stream"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8080", "HTTP address serving the api/v1 gateway")
		backend  = flag.String("backend", "127.0.0.1:7070", "apollod stream-fabric address to front")
		tokens   = flag.String("tokens", "", "comma-separated token=principal bearer tokens; empty leaves the gateway open (anonymous)")
		rate     = flag.Float64("rate", 0, "per-principal sustained request budget, requests/second (0 = default, negative disables)")
		burst    = flag.Int("burst", 0, "token-bucket capacity (0 = default)")
		queue    = flag.Int("queue", 0, "frames a subscriber may trail the live tail by (length of each topic's shared frame ring); beyond it the client is evicted (0 = default)")
		drainT   = flag.Duration("drain-timeout", 0, "graceful-shutdown bound (0 = default)")
		metricsA = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus text); empty disables")
	)
	flag.Parse()

	tokenMap, err := parseTokens(*tokens)
	if err != nil {
		log.Fatalf("apollo-gateway: %v", err)
	}

	bus, err := stream.Dial(*backend)
	if err != nil {
		log.Fatalf("apollo-gateway: dialing backend %s: %v", *backend, err)
	}
	defer bus.Close()

	reg := obs.NewRegistry()
	gw := gateway.New(gateway.NewBusBackend(bus), gateway.Config{
		Tokens:       tokenMap,
		Rate:         *rate,
		Burst:        *burst,
		QueueSize:    *queue,
		DrainTimeout: *drainT,
		Obs:          reg,
	})
	addr, err := gw.Serve(*listen)
	if err != nil {
		log.Fatalf("apollo-gateway: %v", err)
	}
	auth := "open (anonymous)"
	if len(tokenMap) > 0 {
		auth = fmt.Sprintf("%d bearer tokens", len(tokenMap))
	}
	log.Printf("apollo-gateway on http://%s/api/v1, backend %s (%s)", addr, *backend, auth)

	if *metricsA != "" {
		ln, err := net.Listen("tcp", *metricsA)
		if err != nil {
			log.Fatalf("apollo-gateway: metrics endpoint: %v", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		go http.Serve(ln, mux)
		log.Printf("metrics on http://%s/metrics", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("apollo-gateway: %v, draining", s)
	if err := gw.Shutdown(context.Background()); err != nil {
		log.Printf("apollo-gateway: drain: %v", err)
	}
}

// parseTokens decodes a comma-separated token=principal list.
func parseTokens(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	tokens := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		tok, principal, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tok == "" || principal == "" {
			return nil, fmt.Errorf("bad -tokens entry %q (want token=principal)", part)
		}
		tokens[tok] = principal
	}
	return tokens, nil
}
