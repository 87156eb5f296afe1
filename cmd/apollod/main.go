// Command apollod runs an Apollo observer daemon over a simulated Ares-like
// cluster: it deploys capacity/bandwidth/health Fact Vertices on every
// simulated node, the Figure-2 tier-capacity insight cascade, exposes the
// Pub-Sub fabric over TCP for apolloctl and remote vertices, and drives a
// synthetic bursty workload so the telemetry moves.
//
// Usage:
//
//	apollod -listen 127.0.0.1:7070 -compute 4 -storage 4
//
// A replicated 3-node fabric (run each in its own terminal):
//
//	apollod -listen 127.0.0.1:7070 -node-id n0 -peers n1=127.0.0.1:7071,n2=127.0.0.1:7072 -replicas 3
//	apollod -listen 127.0.0.1:7071 -node-id n1 -peers n0=127.0.0.1:7070,n2=127.0.0.1:7072 -replicas 3
//	apollod -listen 127.0.0.1:7072 -node-id n2 -peers n0=127.0.0.1:7070,n1=127.0.0.1:7071 -replicas 3
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/apollo"
	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "TCP address for the Pub-Sub fabric")
		compute  = flag.Int("compute", 4, "simulated compute nodes")
		storage  = flag.Int("storage", 4, "simulated storage nodes")
		mode     = flag.String("mode", "complex-aimd", "interval mode: fixed | simple-aimd | complex-aimd")
		delphiF  = flag.String("delphi", "", "path to a trained Delphi model (see delphi-train); empty disables prediction")
		delphiB  = flag.Int("delphi-batch", 0, "sweep workers for the shared batch predictor over all Delphi metrics (requires -delphi or -delphi-registry; 0 disables)")
		delphiR  = flag.String("delphi-registry", "", "directory of the versioned per-device-class model registry; empty keeps the single shared model")
		delphiRT = flag.Duration("delphi-retrain", 0, "arm drift detectors and retrain drifted device classes at this cadence (requires -delphi-registry; 0 disables)")
		duration = flag.Duration("duration", 0, "exit after this long (0 = run until signal)")
		seed     = flag.Int64("seed", 1, "workload seed")
		shards   = flag.Int("shards", 0, "broker topic-map shard count (0 = default)")
		planC    = flag.Int("plan-cache", 128, "query-plan LRU capacity (0 = default, negative disables)")
		metricsA = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus text) and /debug/pprof; empty disables")
		archDir  = flag.String("archive-dir", "", "directory persisting per-metric archives; empty disables archiving")
		retenF   = flag.String("retention", "", `tiered archive retention, e.g. "raw=15m,10s=2h,1m=24h" (requires -archive-dir; empty keeps full resolution forever)`)
		compactI = flag.Duration("compact-interval", 0, "how often the archive compactor runs (0 = default)")
		nodeID   = flag.String("node-id", "", "fabric node ID; empty runs standalone, set it (with -peers) to join a replicated broker fabric")
		peersF   = flag.String("peers", "", "comma-separated id=addr fabric peers, e.g. n1=127.0.0.1:7071,n2=127.0.0.1:7072")
		replicas = flag.Int("replicas", 0, "per-topic replication factor, leader included (0 = default)")
		leaseTTL = flag.Duration("lease-ttl", 0, "leader lease TTL; followers may promote this long after renewals stop (0 = default)")
		lagMax   = flag.Uint64("replica-lag-max", 0, "follower lag (entries) above which a topic reports Degraded (0 = default)")
		streamR  = flag.Int("stream-retention", 0, "entries each broker topic retains (0 = default)")
		history  = flag.Int("history-size", 0, "per-vertex in-memory queue bound (0 = default)")
		baseTick = flag.Duration("base-tick", time.Second, "target resolution Delphi restores between polls")
		gwAddr   = flag.String("gateway-addr", "", "HTTP address serving the public api/v1 gateway (queries, SSE/WebSocket subscriptions); empty disables")
		gwTokens = flag.String("gateway-tokens", "", "comma-separated token=principal bearer tokens for the gateway; empty leaves it open (anonymous)")
		gwRate   = flag.Float64("gateway-rate", 0, "per-principal sustained request budget, requests/second (0 = default, negative disables)")
		gwBurst  = flag.Int("gateway-burst", 0, "gateway token-bucket capacity (0 = default)")
		gwQueue  = flag.Int("gateway-queue", 0, "frames a subscriber may trail the live tail by (length of each topic's shared frame ring); beyond it the client is evicted (0 = default)")
	)
	flag.Parse()

	peers, err := parsePeers(*peersF)
	if err != nil {
		log.Fatalf("apollod: %v", err)
	}
	if *nodeID == "" && len(peers) > 0 {
		log.Fatal("apollod: -peers requires -node-id")
	}
	retention, err := archive.ParseRetention(*retenF)
	if err != nil {
		log.Fatalf("apollod: %v", err)
	}
	if *archDir == "" && (*retenF != "" || *compactI != 0) {
		log.Fatal("apollod: -retention/-compact-interval require -archive-dir")
	}

	cfg := apollo.Config{}
	switch *mode {
	case "fixed":
		cfg.Mode = apollo.IntervalFixed
	case "simple-aimd":
		cfg.Mode = apollo.IntervalSimpleAIMD
	case "complex-aimd":
		cfg.Mode = apollo.IntervalComplexAIMD
	default:
		log.Fatalf("apollod: unknown mode %q", *mode)
	}
	if *delphiF == "" && *delphiR == "" && *delphiB != 0 {
		log.Fatal("apollod: -delphi-batch requires -delphi or -delphi-registry")
	}
	if *delphiR == "" && *delphiRT != 0 {
		log.Fatal("apollod: -delphi-retrain requires -delphi-registry")
	}
	if *delphiF != "" {
		m, err := apollo.LoadDelphi(*delphiF)
		if err != nil {
			log.Fatalf("apollod: loading delphi model: %v", err)
		}
		cfg.Delphi = m
		log.Printf("delphi model loaded from %s", *delphiF)
	}
	if *delphiF != "" || *delphiR != "" {
		cfg.DelphiBatch = *delphiB
		if *delphiB > 0 {
			log.Printf("delphi batch predictor enabled: %d sweep workers", *delphiB)
		}
	}
	cfg.DelphiRegistry = *delphiR
	cfg.DelphiRetrain = *delphiRT

	gwTokenMap, err := parseTokens(*gwTokens)
	if err != nil {
		log.Fatalf("apollod: %v", err)
	}
	if *gwAddr == "" && (*gwTokens != "" || *gwRate != 0 || *gwBurst != 0 || *gwQueue != 0) {
		log.Fatal("apollod: -gateway-tokens/-gateway-rate/-gateway-burst/-gateway-queue require -gateway-addr")
	}

	sim := cluster.BuildAres(time.Now(), *compute, *storage)
	svc := core.New(core.Config{
		Mode:             core.IntervalMode(cfg.Mode),
		Delphi:           cfg.Delphi,
		DelphiBatch:      cfg.DelphiBatch,
		DelphiRegistry:   cfg.DelphiRegistry,
		DelphiRetrain:    cfg.DelphiRetrain,
		BaseTick:         *baseTick,
		Retention:        *streamR,
		HistorySize:      *history,
		Shards:           *shards,
		PlanCache:        *planC,
		ArchiveDir:       *archDir,
		ArchiveRetention: retention,
		CompactInterval:  *compactI,
		NodeID:           *nodeID,
		Peers:            peers,
		Replicas:         *replicas,
		LeaseTTL:         *leaseTTL,
		ReplicaLagMax:    *lagMax,
		GatewayAddr:      *gwAddr,
		Gateway: apollo.GatewayConfig{
			Tokens:    gwTokenMap,
			Rate:      *gwRate,
			Burst:     *gwBurst,
			QueueSize: *gwQueue,
		},
	})
	var metrics int
	for _, n := range sim.Nodes() {
		ids, err := svc.DeployNodeMonitors(n)
		if err != nil {
			log.Fatalf("apollod: %v", err)
		}
		metrics += len(ids)
	}
	sink, err := svc.DeployTierCapacityInsights(sim)
	if err != nil {
		log.Fatalf("apollod: %v", err)
	}
	if err := svc.Start(); err != nil {
		log.Fatalf("apollod: %v", err)
	}
	defer svc.Stop()
	addr, err := svc.Serve(*listen)
	if err != nil {
		log.Fatalf("apollod: %v", err)
	}
	log.Printf("apollod listening on %s: %d nodes, %d fact metrics, sink insight %q",
		addr, len(sim.Nodes()), metrics, sink)
	if f := svc.Fabric(); f != nil {
		log.Printf("fabric node %q on a %d-member ring (replication factor %d)",
			f.ID(), len(peers)+1, *replicas)
	}
	if ga := svc.GatewayAddr(); ga != "" {
		auth := "open (anonymous)"
		if len(gwTokenMap) > 0 {
			auth = fmt.Sprintf("%d bearer tokens", len(gwTokenMap))
		}
		log.Printf("gateway on http://%s/api/v1 (%s)", ga, auth)
	}
	if *delphiR != "" {
		if *delphiRT > 0 {
			log.Printf("delphi registry at %s, drift-gated retraining every %s", *delphiR, *delphiRT)
		} else {
			log.Printf("delphi registry at %s (retraining off)", *delphiR)
		}
	}
	if *archDir != "" {
		if retention.IsZero() {
			log.Printf("archiving to %s (no retention: full resolution kept forever)", *archDir)
		} else {
			log.Printf("archiving to %s, retention %s", *archDir, retention)
		}
	}

	if *metricsA != "" {
		maddr, err := serveMetrics(*metricsA, svc.Obs())
		if err != nil {
			log.Fatalf("apollod: metrics endpoint: %v", err)
		}
		log.Printf("metrics on http://%s/metrics, profiles on http://%s/debug/pprof/", maddr, maddr)
	}

	// Synthetic bursty workload so the telemetry is alive.
	stop := make(chan struct{})
	go func() {
		r := rand.New(rand.NewSource(*seed))
		devs := sim.Devices()
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Millisecond):
			}
			for i := 0; i < 1+r.Intn(4); i++ {
				d := devs[r.Intn(len(devs))]
				n := int64(1+r.Intn(64)) << 20
				if r.Float64() < 0.5 {
					if _, err := d.Write(int64(r.Intn(1<<16)), n); err == nil && r.Float64() < 0.3 {
						d.Free(n)
					}
				} else {
					d.Read(int64(r.Intn(1<<16)), n)
				}
			}
			sim.Step(200 * time.Millisecond)
		}
	}()
	defer close(stop)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-time.After(*duration):
			fmt.Println("apollod: duration elapsed, shutting down")
		case s := <-sig:
			fmt.Printf("apollod: %v, shutting down\n", s)
		}
		return
	}
	s := <-sig
	fmt.Printf("apollod: %v, shutting down\n", s)
}

// parseTokens decodes a comma-separated token=principal list into the
// gateway's static auth map.
func parseTokens(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	tokens := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		tok, principal, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tok == "" || principal == "" {
			return nil, fmt.Errorf("bad -gateway-tokens entry %q (want token=principal)", part)
		}
		tokens[tok] = principal
	}
	return tokens, nil
}

// parsePeers decodes a comma-separated id=addr list into a peer map.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=addr)", part)
		}
		peers[id] = addr
	}
	return peers, nil
}

// serveMetrics exposes the registry and the pprof profiles on addr,
// returning the bound address.
func serveMetrics(addr string, r *obs.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}
