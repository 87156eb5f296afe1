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
	"errors"
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

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delphi"
	"repro/internal/obs"
)

// bindFlags registers one flag per service setting directly on its Config
// field: adding a setting is one Config field plus one line here
// (TestFlagsCoverConfig fails on a field with neither a flag nor an entry in
// its programmatic-only list).
func bindFlags(fs *flag.FlagSet, cfg *core.Config) {
	fs.TextVar(&cfg.Mode, "mode", core.IntervalComplexAIMD, "interval mode: fixed | simple-aimd | complex-aimd | entropy")
	fs.Func("delphi", "path to a trained Delphi model (see delphi-train); empty disables prediction", func(path string) (err error) {
		if path == "" {
			return nil
		}
		if cfg.Delphi, err = delphi.Load(path); err != nil {
			return fmt.Errorf("loading delphi model: %w", err)
		}
		log.Printf("delphi model loaded from %s", path)
		return nil
	})
	fs.StringVar(&cfg.DelphiRegistry, "delphi-registry", "", "directory of the versioned per-device-class model registry; empty keeps the single shared model")
	fs.DurationVar(&cfg.DelphiRetrain, "delphi-retrain", 0, "arm drift detectors and retrain drifted device classes at this cadence (requires -delphi-registry; 0 disables)")
	fs.StringVar(&cfg.ArchiveDir, "archive-dir", "", "directory persisting per-metric archives; empty disables archiving")
	fs.Func("retention", `tiered archive retention, e.g. "raw=15m,10s=2h,1m=24h" (requires -archive-dir; empty keeps full resolution forever)`, func(v string) (err error) {
		cfg.ArchiveRetention, err = archive.ParseRetention(v)
		return err
	})
	fs.Int64Var(&cfg.ArchiveSegmentBytes, "archive-segment-bytes", 0, "size at which an archive segment is sealed and a new one opened (0 = default)")
	fs.DurationVar(&cfg.CompactInterval, "compact-interval", 0, "how often the archive compactor runs (0 = default)")
	fs.StringVar(&cfg.NodeID, "node-id", "", "fabric node ID; empty runs standalone, set it (with -peers) to join a replicated broker fabric")
	fs.Func("peers", "comma-separated id=addr fabric peers, e.g. n1=127.0.0.1:7071,n2=127.0.0.1:7072", func(v string) (err error) {
		cfg.Peers, err = parsePairs("peers", "id=addr", v)
		return err
	})
	fs.IntVar(&cfg.Replicas, "replicas", 0, "per-topic replication factor, leader included (0 = default)")
	fs.DurationVar(&cfg.LeaseTTL, "lease-ttl", 0, "leader lease TTL; followers may promote this long after renewals stop (0 = default)")
	fs.Uint64Var(&cfg.ReplicaLagMax, "replica-lag-max", 0, "follower lag (entries) above which a topic reports Degraded (0 = default)")
	fs.IntVar(&cfg.Retention, "stream-retention", 0, "entries each broker topic retains (0 = default)")
	fs.IntVar(&cfg.HistorySize, "history-size", 0, "per-vertex in-memory queue bound (0 = default)")
	fs.DurationVar(&cfg.BaseTick, "base-tick", time.Second, "target resolution Delphi restores between polls")
	fs.StringVar(&cfg.GatewayAddr, "gateway-addr", "", "HTTP address serving the public api/v1 gateway (queries, SSE/WebSocket subscriptions); empty disables")
	fs.Func("gateway-tokens", "comma-separated token=principal bearer tokens for the gateway; empty leaves it open (anonymous)", func(v string) (err error) {
		cfg.Gateway.Tokens, err = parsePairs("gateway-tokens", "token=principal", v)
		return err
	})
	fs.Float64Var(&cfg.Gateway.Rate, "gateway-rate", 0, "per-principal sustained request budget, requests/second (0 = default, negative disables)")
	fs.IntVar(&cfg.Gateway.Burst, "gateway-burst", 0, "gateway token-bucket capacity (0 = default)")
	fs.IntVar(&cfg.Gateway.QueueSize, "gateway-queue", 0, "frames a subscriber may trail the live tail by (length of each topic's shared frame ring); beyond it the client is evicted (0 = default)")
}

// checkFlags applies the cross-flag rules bindFlags cannot express per flag.
func checkFlags(cfg *core.Config) error {
	gw := cfg.Gateway
	switch {
	case cfg.NodeID == "" && len(cfg.Peers) > 0:
		return errors.New("-peers requires -node-id")
	case cfg.ArchiveDir == "" && (!cfg.ArchiveRetention.IsZero() || cfg.CompactInterval != 0 || cfg.ArchiveSegmentBytes != 0):
		return errors.New("-retention/-compact-interval/-archive-segment-bytes require -archive-dir")
	case cfg.DelphiRegistry == "" && cfg.DelphiRetrain != 0:
		return errors.New("-delphi-retrain requires -delphi-registry")
	case cfg.GatewayAddr == "" && (len(gw.Tokens) > 0 || gw.Rate != 0 || gw.Burst != 0 || gw.QueueSize != 0):
		return errors.New("-gateway-tokens/-gateway-rate/-gateway-burst/-gateway-queue require -gateway-addr")
	}
	return nil
}

func main() {
	var cfg core.Config
	bindFlags(flag.CommandLine, &cfg)
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "TCP address for the Pub-Sub fabric")
		compute  = flag.Int("compute", 4, "simulated compute nodes")
		storage  = flag.Int("storage", 4, "simulated storage nodes")
		duration = flag.Duration("duration", 0, "exit after this long (0 = run until signal)")
		seed     = flag.Int64("seed", 1, "workload seed")
		metricsA = flag.String("metrics-addr", "", "HTTP address serving /metrics (Prometheus text) and /debug/pprof; empty disables")
	)
	flag.Parse()
	if err := checkFlags(&cfg); err != nil {
		log.Fatalf("apollod: %v", err)
	}

	sim := cluster.BuildAres(time.Now(), *compute, *storage)
	svc := core.New(cfg)
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
			f.ID(), len(cfg.Peers)+1, cfg.Replicas)
	}
	if ga := svc.GatewayAddr(); ga != "" {
		auth := "open (anonymous)"
		if n := len(cfg.Gateway.Tokens); n > 0 {
			auth = fmt.Sprintf("%d bearer tokens", n)
		}
		log.Printf("gateway on http://%s/api/v1 (%s)", ga, auth)
	}
	if cfg.DelphiRegistry != "" {
		if cfg.DelphiRetrain > 0 {
			log.Printf("delphi registry at %s, drift-gated retraining every %s", cfg.DelphiRegistry, cfg.DelphiRetrain)
		} else {
			log.Printf("delphi registry at %s (retraining off)", cfg.DelphiRegistry)
		}
	}
	if cfg.ArchiveDir != "" {
		if cfg.ArchiveRetention.IsZero() {
			log.Printf("archiving to %s (no retention: full resolution kept forever)", cfg.ArchiveDir)
		} else {
			log.Printf("archiving to %s, retention %s", cfg.ArchiveDir, cfg.ArchiveRetention)
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

// parsePairs decodes a comma-separated key=value list (the -peers and
// -gateway-tokens syntax; want names the pair for the error message).
func parsePairs(flagName, want, s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	pairs := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("bad -%s entry %q (want %s)", flagName, part, want)
		}
		pairs[k] = v
	}
	return pairs, nil
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
