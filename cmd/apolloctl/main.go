// Command apolloctl is the middleware-side client for a running apollod:
// it lists metric streams, pulls latest values, tails a stream, and runs
// Apollo Query Engine SQL against the remote fabric.
//
// Usage:
//
//	apolloctl -addr 127.0.0.1:7070 topics
//	apolloctl -addr 127.0.0.1:7070 latest comp00.nvme0.capacity
//	apolloctl -addr 127.0.0.1:7070 watch cluster.capacity
//	apolloctl -addr 127.0.0.1:7070 query "SELECT MAX(Timestamp), metric FROM cluster.capacity"
//	apolloctl -addr 127.0.0.1:7070 replication
//	apolloctl -addr 127.0.0.1:7070 topology
//
// With -gateway-addr set, query and retention speak the public api/v1 HTTP
// contract to a gateway instead of the internal binary protocol — the query
// runs server-side on the shared plan cache, and retention stats come from
// the serving node's archive rather than the local filesystem:
//
//	apolloctl -gateway-addr 127.0.0.1:8080 -token s3cret query "SELECT MAX(Value) FROM cluster.capacity"
//	apolloctl -gateway-addr 127.0.0.1:8080 retention
//
// Without a gateway, the retention command inspects (and optionally
// compacts) an archive directory on the local filesystem — apollod's
// -archive-dir — without touching the fabric:
//
//	apolloctl retention /var/lib/apollo/archive
//	apolloctl -apply "raw=15m,10s=2h,1m=24h" retention /var/lib/apollo/archive
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/aqe"
	"repro/internal/archive"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "apollod fabric address")
	gwAddr := flag.String("gateway-addr", "", "api/v1 gateway address; when set, query and retention go over HTTP instead of the internal protocol")
	token := flag.String("token", "", "bearer token for -gateway-addr requests")
	lagMax := flag.Uint64("lag-max", 64, "replication lag (entries) above which `replication` marks a topic degraded")
	applyF := flag.String("apply", "", `retention policy for "retention" to apply with one compaction pass, e.g. "raw=15m,10s=2h,1m=24h"`)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "apolloctl: need a command: topics | latest <metric> | watch <metric> | query <sql> | replication | topology | retention [<archive-dir>]")
		os.Exit(2)
	}
	gw := gatewayClient{addr: *gwAddr, token: *token}
	if args[0] == "retention" {
		if gw.enabled() && len(args) == 1 {
			gw.retention()
			return
		}
		// Local-filesystem command: no fabric connection needed.
		runRetention(args[1:], *applyF)
		return
	}
	if args[0] == "query" && gw.enabled() {
		if len(args) < 2 {
			log.Fatal(`apolloctl: query "<sql>"`)
		}
		gw.query(strings.Join(args[1:], " "))
		return
	}
	bus, err := stream.Dial(*addr)
	if err != nil {
		log.Fatalf("apolloctl: %v", err)
	}
	defer bus.Close()

	switch args[0] {
	case "topics":
		names, err := bus.Topics(context.Background())
		if err != nil {
			log.Fatalf("apolloctl: %v", err)
		}
		for _, n := range names {
			fmt.Println(n)
		}

	case "latest":
		if len(args) != 2 {
			log.Fatal("apolloctl: latest <metric>")
		}
		in, ok := latestInfo(bus, args[1])
		if !ok {
			log.Fatalf("apolloctl: no data for %q", args[1])
		}
		fmt.Println(in)

	case "watch":
		if len(args) != 2 {
			log.Fatal("apolloctl: watch <metric>")
		}
		cur, err := bus.Follow(context.Background(), args[1], 0)
		if err != nil {
			log.Fatalf("apolloctl: %v", err)
		}
		for {
			run, err := cur.Next()
			if err != nil {
				log.Fatalf("apolloctl: %v", err)
			}
			for _, e := range run {
				var in telemetry.Info
				if err := in.UnmarshalBinary(e.Payload); err != nil {
					continue
				}
				fmt.Println(in)
			}
		}

	case "query":
		if len(args) < 2 {
			log.Fatal(`apolloctl: query "<sql>"`)
		}
		eng := aqe.NewEngine(aqe.BusResolver{Bus: bus})
		res, err := eng.Query(strings.Join(args[1:], " "))
		if err != nil {
			log.Fatalf("apolloctl: %v", err)
		}
		fmt.Println(strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = c.String()
			}
			fmt.Println(strings.Join(cells, "\t"))
		}

	case "replication":
		sts, err := bus.ReplicationStatus(context.Background())
		if err != nil {
			log.Fatalf("apolloctl: %v (is the node part of a fabric?)", err)
		}
		fmt.Printf("%-40s %6s %-10s %-8s %6s %s\n", "TOPIC", "EPOCH", "LEADER", "ROLE", "LAG", "STATE")
		for _, st := range sts {
			role := "follower"
			if st.IsLeader {
				role = "leader"
			}
			state := "ok"
			if st.IsLeader && st.Lag > *lagMax {
				state = "degraded"
			}
			fmt.Printf("%-40s %6d %-10s %-8s %6d %s\n", st.Topic, st.Epoch, st.Leader, role, st.Lag, state)
		}

	case "topology":
		nodes, err := bus.Topology(context.Background())
		if err != nil {
			log.Fatalf("apolloctl: %v (is the node part of a fabric?)", err)
		}
		for _, n := range nodes {
			self := ""
			if n.Self {
				self = " (contacted node)"
			}
			fmt.Printf("%-10s %s%s\n", n.ID, n.Addr, self)
		}

	default:
		log.Fatalf("apolloctl: unknown command %q", args[0])
	}
}

// latestInfo fetches and decodes the newest tuple of a remote topic.
func latestInfo(bus stream.Bus, topic string) (telemetry.Info, bool) {
	e, err := bus.Latest(context.Background(), topic)
	if err != nil {
		return telemetry.Info{}, false
	}
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		return telemetry.Info{}, false
	}
	return in, true
}

// gatewayClient speaks the public api/v1 HTTP contract for the commands the
// gateway serves; everything else stays on the internal protocol.
type gatewayClient struct {
	addr  string
	token string
}

func (g gatewayClient) enabled() bool { return g.addr != "" }

// do runs one request and decodes the response into out, rendering the
// machine-readable error envelope on failure.
func (g gatewayClient) do(method, path string, body, out any) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			log.Fatalf("apolloctl: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, "http://"+g.addr+path, rd)
	if err != nil {
		log.Fatalf("apolloctl: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if g.token != "" {
		req.Header.Set("Authorization", "Bearer "+g.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("apolloctl: gateway %s: %v", g.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e apiv1.Error
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Code != "" {
			log.Fatalf("apolloctl: gateway: %v", &e)
		}
		log.Fatalf("apolloctl: gateway: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("apolloctl: gateway: %v", err)
	}
}

func (g gatewayClient) query(sql string) {
	var res apiv1.QueryResponse
	g.do(http.MethodPost, apiv1.PathQuery, apiv1.QueryRequest{Query: sql}, &res)
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}

func (g gatewayClient) retention() {
	var res apiv1.RetentionResponse
	g.do(http.MethodGet, apiv1.PathRetention, nil, &res)
	fmt.Printf("%-36s %-4s %6s %12s %10s %s\n", "METRIC", "TIER", "FILES", "BYTES", "RECORDS", "SPAN")
	for _, m := range res.Metrics {
		name := m.Metric
		for _, ts := range m.Tiers {
			fmt.Printf("%-36s %-4s %6d %12d %10d %s\n", name, ts.Tier, ts.Files, ts.Bytes, ts.Records,
				span(ts.Records == 0, ts.FirstTimestampNS, ts.LastTimestampNS))
			name = ""
		}
	}
}

// span renders the SPAN column of a retention row: the tier's first and last
// timestamps, or "-" for a tier that holds no record (the fresh active
// segment of a metric nothing has been evicted from yet).
func span(empty bool, firstNS, lastNS int64) string {
	if empty {
		return "-"
	}
	return fmt.Sprintf("%s .. %s",
		time.Unix(0, firstNS).UTC().Format(time.RFC3339),
		time.Unix(0, lastNS).UTC().Format(time.RFC3339))
}

// runRetention prints a per-tier summary of every metric archive under dir
// (apollod keeps one archive subdirectory per metric) and, when a policy was
// given via -apply, runs one compaction pass on each first.
func runRetention(args []string, apply string) {
	if len(args) != 1 {
		log.Fatal(`apolloctl: retention <archive-dir> (with optional -apply "raw=15m,10s=2h,1m=24h")`)
	}
	root := args[0]
	var policy archive.Retention
	if apply != "" {
		p, err := archive.ParseRetention(apply)
		if err != nil {
			log.Fatalf("apolloctl: %v", err)
		}
		policy = p
	}
	logs, err := archive.ListLogs(root)
	if err != nil {
		log.Fatalf("apolloctl: %v", err)
	}
	if len(logs) == 0 {
		log.Fatalf("apolloctl: no archives under %s", root)
	}
	if apply != "" {
		now := time.Now().UnixNano()
		for _, lg := range logs {
			l, err := archive.Open(lg.Dir, archive.Options{})
			if err != nil {
				log.Fatalf("apolloctl: %s: %v", lg.Dir, err)
			}
			st, err := l.Compact(now, policy)
			l.Close()
			if err != nil {
				log.Fatalf("apolloctl: compacting %s: %v", lg.Dir, err)
			}
			fmt.Printf("compacted %s: %d+%d rolled up (%d bytes), %d files dropped\n",
				filepath.Base(lg.Dir), st.Rolled10s, st.Rolled1m, st.CompressedBytes, st.DroppedFiles)
		}
		if logs, err = archive.ListLogs(root); err != nil {
			log.Fatalf("apolloctl: %v", err)
		}
	}
	fmt.Printf("%-36s %-4s %6s %12s %10s %s\n", "METRIC", "TIER", "FILES", "BYTES", "RECORDS", "SPAN")
	for _, lg := range logs {
		name := filepath.Base(lg.Dir)
		for t, ts := range lg.Tiers {
			if ts.Files == 0 {
				continue
			}
			fmt.Printf("%-36s %-4s %6d %12d %10d %s\n", name, archive.TierNames[t], ts.Files, ts.Bytes, ts.Records,
				span(ts.Records == 0, ts.FirstTS, ts.LastTS))
			name = ""
		}
	}
}
