package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/adaptive"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/delphi"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Sizes are constants, not flags: a workload's name must always mean the
// same load. All Fact vertices poll every pollPeriod; below 10 ms the wall
// clock's After overshoots by about 1 ms on a small box and the offered rate
// becomes an output of the system instead of an input.
const (
	pollPeriod        = 20 * time.Millisecond
	predTicks         = 3 // BaseTick = period/4: each poll yields 1 measured + 3 predicted tuples
	setupSlackSeconds = 3
	gatewayToken      = "bench-token"
	gatewayQueue      = 1024
)

// workloadDef is one traffic mix.
type workloadDef struct {
	name  string
	why   string
	unit  string // what work_kops counts here
	build func(r *runner) (*world, error)
}

var workloads = []workloadDef{
	{"ingest-inproc",
		"paper's core path: 256 facts with Delphi fill, 32 insights, history ring and archive append on the in-process bus; gateway, aqe, TCP and fabric idle. work_kops: k tuples/s accepted by the bus",
		"tuple", buildInproc},
	{"ingest-fabric",
		"replication path: 48 paced facts on 3 nodes over loopback TCP, quorum 2, every publish acked by two replicas; Delphi, archive, gateway, aqe idle. work_kops: k tuples/s accepted by the bus",
		"tuple", buildFabric},
	{"edge-fanout",
		"per-subscriber edge cost: 4 insight topics fanned out to 64 raw SSE and WebSocket readers through the gateway; Delphi, archive, aqe, fabric idle. work_kops: k frames/s read off the sockets",
		"frame", buildFanout},
	{"query-mixed",
		"reads beside writes: 2 HTTP clients at 2 k queries/s each (latest, window, deep, union) against history and archive while 64 facts with Delphi write and compaction runs. work_kops: k correct answers/s",
		"tuple", buildQuery},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// world is one assembled instance of a workload: the real services, the
// benchmark's hooks feeding them, its subscribers and its load generators.
type world struct {
	nodes    []*core.Service
	facts    []*score.FactVertex
	insights []*score.InsightVertex
	hooks    []*traceHook
	subs     []*subscriber
	closers  []func() // run in reverse order
	gate     *gate    // closes the hooks at the end of the run

	polled      int // Fact vertices the world will have
	staggered   int // of those, started so far
	staggerFrom time.Time

	ticks       int           // predicted tuples per poll; 0 with Delphi off
	historySize int           // per-vertex ring, as configured
	model       *delphi.Model // nil with Delphi off
	archiveDir  string        // "" with the archive off
	metrics     int           // fact metrics queries may name
	clientObs   *obs.Registry // instruments of the benchmark's own stream clients
	floodClient *stream.Client
	probeClient *stream.Client
	gwAddr      string

	yard    *yardstick // runs from the warm-up to the end of the window
	sweeps  *sweepLoad
	queries *queryLoad
	flood   *floodLoad
	probe   *ackProbe

	heapPerSubKB, goroutinesPerSub float64 // edge: cost of attaching one socket subscriber
}

func (w *world) onClose(f func()) { w.closers = append(w.closers, f) }

// close stops everything the world started and waits for it.
func (w *world) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}

// waitFirst blocks until every subscriber has received a tuple.
func (w *world) waitFirst(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, s := range w.subs {
		for s.delivered.Load() == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("subscriber on %s (%s) received nothing within %v", s.topic, s.transport, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// tail is the last stream id the bus assigned on topic. In the fabric every
// node replicates every topic; the subscribers read node b.
func (w *world) tail(topic string) uint64 {
	n := w.nodes[min(1, len(w.nodes)-1)]
	_, last, _ := n.Broker().TopicTail(context.Background(), topic)
	return last
}

// trainModel trains Delphi as cmd/delphi-train does when given no flags. It
// is most of a set-up with Delphi on, and the part that repeats: what is left
// is opening one archive log per metric, and creating a file costs this file
// system anything from 0.07 to 0.7 ms of kernel time, drifting over minutes.
func trainModel() (*delphi.Model, error) {
	return delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 60, SeriesPerFeature: 10, SeriesLen: 400, Noise: 0.2})
}

// stagger spaces the start of the world's polled vertices evenly over one
// poll period. Vertices registered on a started service poll at once; started
// together, they would all poll in the same instant every period, and how
// long such a burst stays together is a matter of chance that decides a
// run's freshness. Spinning keeps the spacing exact where a timer would
// overshoot by more than the spacing.
func (w *world) stagger() {
	if w.staggered == 0 {
		w.staggerFrom = time.Now()
	}
	due := w.staggerFrom.Add(time.Duration(w.staggered) * pollPeriod / time.Duration(w.polled))
	w.staggered++
	for time.Now().Before(due) {
	}
}

// addFacts registers trace-fed Fact vertices first..first+n-1 on svc, which
// has been started.
func (w *world) addFacts(r *runner, svc *core.Service, first, n int) error {
	for i := first; i < first+n; i++ {
		w.stagger()
		h := &traceHook{id: telemetry.MetricID(factName(i)), vals: makeTrace(r.cfg.seed, i), period: pollPeriod, win: &r.win, gate: w.gate}
		if i < gapHooks {
			h.gaps = make([]int64, 0, pollsPerWindow(r)*2)
			r.own(cap(h.gaps) * 8)
		}
		if r.rec != nil {
			h.captured = make([]capture, 0, pollsPerWindow(r)*2)
		}
		v, err := svc.RegisterMetric(h)
		if err != nil {
			return err
		}
		w.hooks = append(w.hooks, h)
		w.facts = append(w.facts, v)
	}
	return nil
}

func pollsPerWindow(r *runner) int { return r.cfg.seconds * int(time.Second/pollPeriod) }

// addSums registers n Sum insights of fan-in 8 over consecutive facts.
func (w *world) addSums(svc *core.Service, n int) error {
	for i := 0; i < n; i++ {
		inputs := make([]telemetry.MetricID, 8)
		for j := range inputs {
			inputs[j] = telemetry.MetricID(factName(i*8 + j))
		}
		v, err := svc.RegisterInsight(telemetry.MetricID(fmt.Sprintf("sum%02d", i)), inputs, score.Sum)
		if err != nil {
			return err
		}
		w.insights = append(w.insights, v)
	}
	return nil
}

func (w *world) start(svc *core.Service) error {
	w.nodes = append(w.nodes, svc)
	w.onClose(svc.Stop)
	return svc.Start()
}

func (w *world) tmpDir(r *runner, name string) (string, error) {
	dir, err := os.MkdirTemp(r.workDir, name+"-")
	if err != nil {
		return "", err
	}
	w.onClose(func() { os.RemoveAll(dir) })
	return dir, nil
}

// archiveTree is the world's archive directory: one per run, which every
// set-up of the run finds with the directories of the one before and none of
// its files. Making a directory costs this file system between 0.1 and 1.3 ms
// of kernel time depending on what was deleted in the last seconds (264 of
// them were 50 to 350 ms of an ingest-inproc set-up, and the level drifted
// from process to process), which says nothing about the program. Only the
// run's first set-up makes the directories; the median is of set-ups that
// did not.
func (w *world) archiveTree(r *runner) (string, error) {
	dir := filepath.Join(r.workDir, "archive")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	w.onClose(func() {
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				os.Remove(path)
			}
			return nil
		})
	})
	return dir, nil
}

func (w *world) subscribe(s *subscriber, err error) error {
	if err != nil {
		return err
	}
	w.subs = append(w.subs, s)
	w.onClose(s.join)
	return nil
}

func fixed(cfg core.Config) core.Config {
	cfg.Mode = core.IntervalFixed
	cfg.Adaptive = adaptive.Config{Initial: pollPeriod}
	return cfg
}

// buildInproc: 256 facts with Delphi fill and archive eviction, 32 Sum
// insights, 8 probe facts feeding probe.max, 2 in-process readers, and a
// PredictAll sweep every 100 ms.
func buildInproc(r *runner) (*world, error) {
	const facts, sums, probes = 256, 32, 8
	w := &world{ticks: predTicks, historySize: 256, metrics: facts, gate: newGate(), polled: facts + probes}
	dir, err := w.archiveTree(r)
	if err != nil {
		return w, err
	}
	w.archiveDir = dir
	if w.model, err = trainModel(); err != nil {
		return w, err
	}
	svc := core.New(fixed(core.Config{
		Delphi: w.model, DelphiBatch: 2, BaseTick: pollPeriod / (predTicks + 1),
		ArchiveDir: dir, HistorySize: w.historySize,
	}))
	if err := w.start(svc); err != nil {
		return w, err
	}
	if err := w.addSums(svc, sums); err != nil {
		return w, err
	}
	probeIDs := make([]telemetry.MetricID, probes)
	for i := range probeIDs {
		probeIDs[i] = telemetry.MetricID(fmt.Sprintf("probe%d", i))
	}
	pm, err := svc.RegisterInsight("probe.max", probeIDs, score.Max)
	if err != nil {
		return w, err
	}
	w.insights = append(w.insights, pm)
	if err := w.addFacts(r, svc, 0, facts); err != nil {
		return w, err
	}
	for _, id := range probeIDs {
		w.stagger()
		v, err := svc.RegisterMetric(&probeHook{id: id, epoch: r.epoch, gate: w.gate}, core.WithoutDelphi())
		if err != nil {
			return w, err
		}
		w.facts = append(w.facts, v)
	}
	perSec := float64(time.Second / pollPeriod)
	// The same sample seen after its Fact vertex is a child of its arrival
	// after the insight, so the parent span's self time is the insight hop.
	afterFact := newSubscriber(r, string(probeIDs[0]), "inproc", perSec).asProbe(r)
	afterFact.spanName, afterFact.spanParent = "path.inproc.fact", "path.inproc"
	for _, s := range []*subscriber{newSubscriber(r, "probe.max", "inproc", perSec*probes).asProbe(r), afterFact} {
		if err := w.subscribe(s, subscribeInproc(svc, s)); err != nil {
			return w, err
		}
	}
	w.sweeps = startSweeps(r, svc)
	w.onClose(w.sweeps.stop)
	return w, nil
}

// freeAddrs reserves n loopback addresses; a fabric's peer map must be known
// before any node serves.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// buildFabric: three services replicating every topic to all of them, 48
// facts spread over the nodes, 2 subscribers through a fabric client dialed
// at a node that hosts neither vertex.
func buildFabric(r *runner) (*world, error) {
	const facts = 48
	ids := []string{"a", "b", "c"}
	w := &world{historySize: 4096, metrics: facts, clientObs: obs.NewRegistry(), gate: newGate(), polled: facts}
	addrs, err := freeAddrs(len(ids))
	if err != nil {
		return w, err
	}
	svcs := make([]*core.Service, len(ids))
	for i, id := range ids {
		peers := make(map[string]string)
		for j, other := range ids {
			if j != i {
				peers[other] = addrs[j]
			}
		}
		svcs[i] = core.New(fixed(core.Config{NodeID: id, Peers: peers, Replicas: len(ids)}))
		w.nodes = append(w.nodes, svcs[i])
		w.onClose(svcs[i].Stop)
	}
	// The lease coordinator (lowest id) serves first; the others reach it
	// lazily.
	for i, svc := range svcs {
		if _, err := svc.Serve(addrs[i]); err != nil {
			return w, fmt.Errorf("serve %s: %w", ids[i], err)
		}
	}
	for _, svc := range svcs {
		if err := svc.Start(); err != nil {
			return w, err
		}
	}
	for i := 0; i < facts; i++ {
		if err := w.addFacts(r, svcs[i%len(svcs)], i, 1); err != nil {
			return w, err
		}
	}
	dial := func(at int, opts ...stream.Option) (*stream.Client, error) {
		opts = append(opts, stream.WithSeeds(addrs...), stream.WithObs(w.clientObs))
		c, err := stream.Dial(addrs[at], opts...)
		if err == nil {
			w.onClose(func() { c.Close() })
		}
		return c, err
	}
	// f000 and f003 are polled on node a; their subscribers read node b's
	// replica.
	subClient, err := dial(1)
	if err != nil {
		return w, err
	}
	perSec := float64(time.Second/pollPeriod) * (1 - repeatShare)
	for _, topic := range []string{factName(0), factName(3)} {
		s := newSubscriber(r, topic, "fabric", perSec)
		if err := w.subscribe(s, subscribeFabric(subClient, s)); err != nil {
			return w, err
		}
	}
	if w.probeClient, err = dial(1); err != nil {
		return w, err
	}
	if w.floodClient, err = dial(2, stream.WithCoalesce(64, 2*time.Millisecond)); err != nil {
		return w, err
	}
	return w, nil
}

func gatewayConfig() gateway.Config {
	// Rate limiting is admission policy, not the path under test, and the
	// default 100 req/s would throttle the run.
	return gateway.Config{Tokens: map[string]string{gatewayToken: "bench"}, Rate: -1, QueueSize: gatewayQueue}
}

// buildFanout: 32 facts feed 4 Sum insights; 64 socket subscribers, 16 per
// insight, alternately SSE and WebSocket, each decoding 1 frame in 16.
func buildFanout(r *runner) (*world, error) {
	const facts, sums, subsPerTopic = 32, 4, 16
	w := &world{historySize: 4096, metrics: facts, gate: newGate(), polled: facts}
	svc := core.New(fixed(core.Config{Gateway: gatewayConfig()}))
	if err := w.start(svc); err != nil {
		return w, err
	}
	if err := w.addSums(svc, sums); err != nil {
		return w, err
	}
	if err := w.addFacts(r, svc, 0, facts); err != nil {
		return w, err
	}
	var err error
	if w.gwAddr, err = svc.ServeGateway("127.0.0.1:0"); err != nil {
		return w, err
	}
	var heap0 uint64
	var gor0 int
	if r.rec != nil {
		heap0, gor0 = liveHeapBytes(), runtime.NumGoroutine()
	}
	// Every changed input re-derives the sum.
	perSec := 8 * float64(time.Second/pollPeriod) * (1 - repeatShare)
	for i := 0; i < sums*subsPerTopic; i++ {
		transport := "sse"
		if i%2 == 1 {
			transport = "ws"
		}
		s := newSubscriber(r, fmt.Sprintf("sum%02d", i%sums), transport, perSec/16)
		s.decodeEvery = 16
		if err := w.subscribe(s, subscribeSocket(w.gwAddr, gatewayToken, s)); err != nil {
			return w, err
		}
	}
	if r.rec != nil {
		if err := w.waitFirst(10 * time.Second); err != nil {
			return w, err
		}
		n := float64(len(w.subs))
		w.heapPerSubKB = (float64(liveHeapBytes()) - float64(heap0)) / 1024 / n
		// Each subscriber adds two goroutines of the benchmark's own: its
		// reader and the watcher that closes its connection.
		w.goroutinesPerSub = float64(runtime.NumGoroutine()-gor0)/n - 2
	}
	return w, nil
}

// buildQuery: 64 facts with Delphi and archive, the gateway, 2 SSE and 2
// in-process subscribers on the 4 audited metrics, 2 open-loop query
// clients.
func buildQuery(r *runner) (*world, error) {
	const facts = 64
	w := &world{ticks: predTicks, historySize: 512, metrics: facts, gate: newGate(), polled: facts}
	dir, err := w.archiveTree(r)
	if err != nil {
		return w, err
	}
	w.archiveDir = dir
	if w.model, err = trainModel(); err != nil {
		return w, err
	}
	svc := core.New(fixed(core.Config{
		Delphi: w.model, BaseTick: pollPeriod / (predTicks + 1),
		ArchiveDir: dir, HistorySize: w.historySize, CompactInterval: 5 * time.Second,
		ArchiveRetention: archive.Retention{Raw: 10 * time.Second, Rollup10s: time.Minute, Rollup1m: time.Hour},
		Gateway:          gatewayConfig(),
	}))
	if err := w.start(svc); err != nil {
		return w, err
	}
	if err := w.addFacts(r, svc, 0, facts); err != nil {
		return w, err
	}
	if w.gwAddr, err = svc.ServeGateway("127.0.0.1:0"); err != nil {
		return w, err
	}
	perSec := float64(time.Second/pollPeriod) * (1 - repeatShare + predTicks)
	for i := 0; i < auditedMetrics; i++ {
		if i < 2 {
			s := newSubscriber(r, factName(i), "sse", perSec).withLog(r, perSec)
			err = w.subscribe(s, subscribeSocket(w.gwAddr, gatewayToken, s))
		} else {
			s := newSubscriber(r, factName(i), "inproc", perSec).withLog(r, perSec)
			err = w.subscribe(s, subscribeInproc(svc, s))
		}
		if err != nil {
			return w, err
		}
	}
	w.queries = startQueries(r, w.gwAddr, gatewayToken, facts)
	w.onClose(w.queries.stop)
	return w, nil
}
