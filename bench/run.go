package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/bench/result"
	"repro/internal/obs"
	"repro/internal/score"
)

// config is what the command line chose; everything else is a constant.
type config struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string
	warmup  time.Duration
	setups  int // set-ups per run; setup_s is their median
}

// runner carries one run of one workload.
type runner struct {
	cfg     config
	epoch   time.Time
	win     window
	rec     *recorder // nil unless tracing
	workDir string
	// ownBytes is what the benchmark's own pre-allocated sample arrays hold;
	// it is taken off the live heap so live_heap_mb is the system's.
	ownBytes int64
}

func (r *runner) own(n int)               { r.ownBytes += int64(n) }
func (r *runner) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// snapshot is every public counter read at one boundary of the window.
type snapshot struct {
	at       time.Time
	usage    procUsage
	yardCPU  time.Duration // of usage, what the yardstick's threads used
	mem      runtime.MemStats
	gcCPU    float64
	stolen   float64        // CPU-seconds the hypervisor withheld so far
	obs      []obs.Snapshot // one per node
	client   obs.Snapshot   // the benchmark's own stream clients
	facts    []score.StatsSnapshot
	insights []score.StatsSnapshot
	frames   uint64 // tuples delivered to the subscribers so far
	backlog  uint64 // tuples the bus holds that the subscribers have not received
	obsTook  time.Duration
}

func (w *world) snapshot() *snapshot {
	s := &snapshot{at: time.Now(), usage: readUsage(), gcCPU: gcCPUSeconds(), stolen: stolenSeconds()}
	_, _, s.yardCPU = w.yard.read()
	runtime.ReadMemStats(&s.mem)
	t0 := time.Now()
	for _, n := range w.nodes {
		s.obs = append(s.obs, n.Metrics())
	}
	s.obsTook = time.Since(t0)
	if w.clientObs != nil {
		s.client = w.clientObs.Snapshot()
	}
	for _, v := range w.facts {
		s.facts = append(s.facts, v.Stats())
	}
	for _, v := range w.insights {
		s.insights = append(s.insights, v.Stats())
	}
	for _, sub := range w.subs {
		s.frames += sub.delivered.Load()
		if tail := w.tail(sub.topic); tail > sub.position() {
			s.backlog += tail - sub.position()
		}
	}
	return s
}

// matches reports whether an instrument's full name is base, optionally with
// a label block containing label.
func matches(name, base, label string) bool {
	if !strings.HasPrefix(name, base) {
		return false
	}
	rest := name[len(base):]
	if rest == "" {
		return label == ""
	}
	return rest[0] == '{' && strings.Contains(rest, label)
}

func sumCounters(snaps []obs.Snapshot, base, label string) float64 {
	var sum float64
	for _, s := range snaps {
		for name, v := range s.Counters {
			if matches(name, base, label) {
				sum += float64(v)
			}
		}
	}
	return sum
}

// sumHist returns the pooled count and sum of the matching histograms.
func sumHist(snaps []obs.Snapshot, base, label string) (count, sum float64) {
	for _, s := range snaps {
		for name, h := range s.Histograms {
			if matches(name, base, label) {
				count += float64(h.Count)
				sum += h.Sum
			}
		}
	}
	return count, sum
}

// interval is the time between two snapshots.
type interval struct{ from, to *snapshot }

func (iv interval) seconds() float64 { return iv.to.at.Sub(iv.from.at).Seconds() }
func (iv interval) cpu() time.Duration {
	return iv.to.usage.cpu() - iv.from.usage.cpu() - (iv.to.yardCPU - iv.from.yardCPU)
}
func (iv interval) counter(base, label string) float64 {
	return sumCounters(iv.to.obs, base, label) - sumCounters(iv.from.obs, base, label)
}
func (iv interval) clientCounter(base string) float64 {
	return sumCounters([]obs.Snapshot{iv.to.client}, base, "") - sumCounters([]obs.Snapshot{iv.from.client}, base, "")
}
func (iv interval) hist(base, label string) (count, sum float64) {
	c1, s1 := sumHist(iv.to.obs, base, label)
	c0, s0 := sumHist(iv.from.obs, base, label)
	return c1 - c0, s1 - s0
}
func (iv interval) tuples() float64 { return iv.counter("score_tuples_out_total", "") }

// stats sums a field of the vertex anatomy counters over the interval.
func statsDelta(from, to []score.StatsSnapshot, f func(score.StatsSnapshot) float64) float64 {
	var sum float64
	for i := range to {
		sum += f(to[i]) - f(from[i])
	}
	return sum
}

// reading is the cheap part of a snapshot, taken every second of the window.
// End-to-end rates are medians over the per-second differences, so a second
// in which the host took the processor away does not decide a run.
type reading struct {
	at      time.Time
	cpu     time.Duration
	tuples  uint64 // accepted by the bus, from the vertices' own counters
	frames  uint64 // delivered to the subscribers
	answers uint64 // correct query answers

	yard       time.Duration // CPU time of the yardstick's rounds
	yardRounds int
}

func (w *world) read() reading {
	s := reading{at: time.Now(), cpu: readUsage().cpu()}
	var own time.Duration
	s.yard, s.yardRounds, own = w.yard.read()
	s.cpu -= own
	for _, v := range w.facts {
		st := v.Stats()
		s.tuples += st.Published + st.Predicted
	}
	for _, v := range w.insights {
		s.tuples += v.Stats().Published
	}
	for _, sub := range w.subs {
		s.frames += sub.delivered.Load()
	}
	if w.queries != nil {
		for _, qc := range w.queries.clients {
			s.answers += qc.okNow.Load()
		}
	}
	return s
}

// perSecond returns, for each pair of consecutive readings, num's difference
// over den's.
func perSecond(readings []reading, num, den func(a, b reading) float64) []float64 {
	var out []float64
	for i := 1; i < len(readings); i++ {
		if d := den(readings[i-1], readings[i]); d > 0 {
			out = append(out, num(readings[i-1], readings[i])/d)
		}
	}
	return out
}

func seconds(a, b reading) float64 { return b.at.Sub(a.at).Seconds() }

// outcome is everything one run produced.
type outcome struct {
	workload  string
	env       result.Env
	e2e       table
	layers    table
	attempted int
	failed    int
	flags     []string
	budget    string // traced runs: the per-layer table and budget line
}

func (o *outcome) rows(traced bool) []result.Row {
	if traced {
		return o.layers.rows(o.workload, perLayer)
	}
	return o.e2e.rows(o.workload, endToEnd)
}

// runWorkload runs one workload with the processors kept awake (see
// keepAwake).
func runWorkload(def workloadDef, cfg config) (*outcome, error) {
	stopSpinners := keepAwake()
	o, err := measureWorkload(def, cfg)
	if note := stopSpinners(); note != "" && o != nil {
		o.flags = append(o.flags, note)
	}
	return o, err
}

// measureWorkload sets the workload up cfg.setups times (setup_s is the
// median), warms the last instance up, measures it for cfg.seconds, audits
// what it produced and tears it down. A violated invariant is an error: the
// run then reports no metrics.
func measureWorkload(def workloadDef, cfg config) (*outcome, error) {
	r := &runner{cfg: cfg, epoch: time.Now()}
	if cfg.trace {
		r.rec = newRecorder(r.epoch)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.outDir, "work-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	r.workDir = workDir
	defer os.RemoveAll(workDir)

	var w *world
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		r.ownBytes = 0
		// The previous instance is garbage by now; collecting it inside the
		// next set-up would charge that set-up for it.
		runtime.GC()
		start := time.Now()
		w, err = def.build(r)
		if err == nil {
			err = w.waitFirst(20 * time.Second)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			w.close()
		}
	}
	defer w.close()
	w.yard = startYardstick()
	r.own(w.yard.heap)
	time.Sleep(cfg.warmup)

	m := &measurement{def: def, r: r, w: w}
	m.measure()
	w.yard.stop()
	o := &outcome{workload: def.name, env: fingerprint(cfg), e2e: table{}, layers: table{}}
	o.e2e.set("setup_s", result.Median(setups), len(setups))
	if err := m.finish(o); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	return o, nil
}

// measurement is the measured part of a run: the window and what is read at
// its boundaries.
type measurement struct {
	def workloadDef
	r   *runner
	w   *world

	ref   interval // traced runs: a stretch of the same load with the recorder off
	paced interval // ingest at the program's own pace; freshness and CPU per tuple come from here
	flood interval // ingest-fabric, traced only: the closed-loop publish flood
	whole interval

	pacedReadings []reading
	acked         uint64    // flood tuples acked inside the flood interval
	heap          uint64    // live heap at the end of the window
	lagMax        uint64    // worst follower lag seen (fabric)
	backlg        int       // worst store-and-forward backlog seen
	led           []float64 // fabric: topics led per node at the end of the window

	goroutines   int
	archiveBytes int64 // what the archive directory holds once the vertices have stopped
}

// measure runs the window. Untraced: the paced load alone, for the whole
// window. Traced: a quarter of the time first goes to a reference stretch with
// the recorder off, so the two can be compared inside one process; on
// ingest-fabric the ack prober runs beside both stretches and the last third
// of what remains is the publish flood. Both are per-layer probes, like the
// replay part: neither their numbers nor their load are in an untraced run.
func (m *measurement) measure() {
	r, w := m.r, m.w
	total := time.Duration(r.cfg.seconds) * time.Second
	pacedLen := total
	if r.rec != nil {
		if w.probeClient != nil {
			w.probe = startAckProbe(r, w.probeClient)
		}
		refLen := total / 4
		m.ref.from = w.snapshot()
		time.Sleep(refLen)
		m.ref.to = w.snapshot()
		total -= refLen
		pacedLen = total
		if w.floodClient != nil {
			pacedLen = total * 2 / 3
		}
		r.rec.on.Store(true)
	}
	stopSampler := m.sampleGauges()
	start := w.snapshot()
	opened := time.Now()
	r.win.set(opened, pacedLen)
	m.pacedReadings = m.readings(opened, pacedLen)
	end := w.snapshot()
	m.paced = interval{start, end}
	if w.probe != nil {
		w.probe.stop()
	}
	if r.rec != nil && w.floodClient != nil {
		floodLen := total - pacedLen
		w.flood = startFlood(r, w.floodClient, int(floodLen/time.Second)+1)
		time.Sleep(time.Until(end.at.Add(floodLen)))
		m.acked = w.flood.acked.Load()
		fend := w.snapshot()
		w.flood.stop()
		m.flood = interval{end, fend}
		end = fend
	}
	m.whole = interval{start, end}
	stopSampler()
	r.rec.off()
	m.goroutines = runtime.NumGoroutine()
	if len(w.nodes) > 1 {
		for _, n := range w.nodes {
			led := 0.0
			for _, st := range n.Replication() {
				if st.IsLeader {
					led++
				}
			}
			m.led = append(m.led, led)
		}
	}
	m.heap = liveHeapBytes()
}

// readings sleeps through a stretch of the window, taking a reading every
// second and at both ends.
func (m *measurement) readings(from time.Time, d time.Duration) []reading {
	out := []reading{m.w.read()}
	for next := from.Add(time.Second); next.Before(from.Add(d - time.Second/2)); next = next.Add(time.Second) {
		time.Sleep(time.Until(next))
		out = append(out, m.w.read())
	}
	time.Sleep(time.Until(from.Add(d)))
	return append(out, m.w.read())
}

// sampleGauges polls, beside the window, the values that have no counter:
// the worst follower lag and the deepest store-and-forward backlog.
func (m *measurement) sampleGauges() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			for _, n := range m.w.nodes {
				for _, st := range n.Replication() {
					m.lagMax = max(m.lagMax, st.Lag)
				}
				for _, h := range n.Health() {
					m.backlg = max(m.backlg, h.Buffered)
				}
			}
		}
	}()
	return func() { cancel(); <-done }
}

func (r *recorder) off() {
	if r != nil {
		r.on.Store(false)
	}
}

// writeTrace stores the spans of a traced run next to its results.
func (m *measurement) writeTrace(counters []string) (string, error) {
	path := filepath.Join(m.r.cfg.outDir, m.def.name+".trace.json")
	return path, m.r.rec.write(path, m.def.name, m.r.cfg.seed, counters)
}
