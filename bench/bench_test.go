package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/bench/result"
	"repro/internal/telemetry"
)

func TestPercentile(t *testing.T) {
	vs := make([]float64, 101)
	for i := range vs {
		vs[i] = float64(100 - i) // unsorted on purpose
	}
	d := newDist(vs)
	for q, want := range map[float64]float64{0: 0, 50: 50, 90: 90, 99: 99, 100: 100} {
		if got := d.p(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	if got := newDist([]float64{1, 2}).p(50); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := newDist(nil).p(50); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
}

// The highest percentile reported beside a median is the one that still has
// ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 99: 0, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9, 100000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	d := newDist(make([]float64, 500))
	if _, ok := d.supported(99); ok {
		t.Error("p99 of 500 samples has 5 samples beyond it, must not be supported")
	}
	if _, ok := d.supported(90); !ok {
		t.Error("p90 of 500 samples has 50 samples beyond it, must be supported")
	}
}

func TestSeedsDetermineInputs(t *testing.T) {
	if !reflect.DeepEqual(makeTrace(7, 3), makeTrace(7, 3)) {
		t.Error("same seed and hook gave different traces")
	}
	if reflect.DeepEqual(makeTrace(7, 3), makeTrace(8, 3)) || reflect.DeepEqual(makeTrace(7, 3), makeTrace(7, 4)) {
		t.Error("different seed or hook gave the same trace")
	}
	draw := func(seed int64, client int) []queryPick {
		m := newQueryMix(seed, client, 64)
		out := make([]queryPick, 500)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Error("same seed gave different query sequences")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) || reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Error("different seed or client gave the same query sequence")
	}
	// A quarter of the samples repeat, and the mix has its stated shares.
	vals, repeats := makeTrace(1, 0), 0
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			repeats++
		}
	}
	if share := float64(repeats) / float64(len(vals)); math.Abs(share-repeatShare) > 0.03 {
		t.Errorf("repeat share %v, want about %v", share, repeatShare)
	}
	var kinds [numKinds]int
	for _, p := range draw(1, 0) {
		kinds[p.kind]++
	}
	if kinds[kindLatest] < 200 || kinds[kindUnion] > 60 {
		t.Errorf("query mix %v is not 50/30/15/5", kinds)
	}
}

// BENCHMARK.json must list exactly what the binary prints.
func TestSpecMatchesBinary(t *testing.T) {
	spec, err := result.ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n spec   %+v\n binary %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Error("per_layer differs from the binary's table")
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, binary measures %d by default", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the spec, %d in the binary", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: spec %+v, binary %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]result.MetricSpec{}, endToEnd...), perLayer...) {
		if !result.NameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v is outside the allowed shape", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, w := range workloads {
		if !result.NameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: "root", Start: 10, End: 40},
		{ID: 1, Name: "b", Parent: "root", Start: 30, End: 60}, // overlaps a: the union is 50
		{ID: 2, Name: "root", Start: 0, End: 10},               // another request, no children
	}
	got := map[string]spanStat{}
	for _, s := range selfTimes(spans) {
		got[s.name] = s
	}
	if r := got["root"]; r.count != 2 || r.total != 110 || r.self != 60 {
		t.Errorf("root = %+v, want count 2, total 110, self 60", r)
	}
	if a := got["a"]; a.total != 30 || a.self != 30 {
		t.Errorf("a = %+v, want total and self 30", a)
	}
}

func TestSubscriberNoticesGapsAndDisorder(t *testing.T) {
	r := &runner{cfg: config{seconds: 1}}
	s := newSubscriber(r, "m", "fabric", 10)
	in := telemetry.NewFact("m", 1, 1)
	for _, id := range []uint64{1, 2, 5, 4} {
		s.observe(id, in, 2)
	}
	if s.gaps != 2 || s.disorder != 1 {
		t.Errorf("gaps %d, disorder %d; want 2 and 1", s.gaps, s.disorder)
	}
	if s.position() != 4 || s.delivered.Load() != 4 {
		t.Errorf("position %d, delivered %d", s.position(), s.delivered.Load())
	}
}

func TestFreshnessCountsOnlyMeasuredTuplesOfTheWindow(t *testing.T) {
	r := &runner{cfg: config{seconds: 1}}
	r.win.set(time.Unix(0, 1000), 1000)
	s := newSubscriber(r, "m", "inproc", 10)
	s.observe(0, telemetry.NewFact("m", 500, 1), 600)              // before the window
	s.observe(0, telemetry.NewFact("m", 1500, 1), 1700)            // in: 200 ns old
	s.observe(0, telemetry.NewPredictedFact("m", 1600, 1), 1700)   // predicted: throughput only
	s.observe(0, telemetry.NewFact("m", 1900, 1), 1900+20_000_000) // in, but 20 ms old: a miss
	f := poolFresh([]*subscriber{s}, 1000, nil)
	if f.ms.n() != 2 || len(f.secOK) != 1 || f.secOK[0] != 0.5 {
		t.Errorf("samples %d, per-second ok shares %v; want 2 and [0.5]", f.ms.n(), f.secOK)
	}
}

// The yardstick does its rounds on every processor and accounts for all the
// CPU time its threads use.
func TestYardstick(t *testing.T) {
	y := startYardstick()
	time.Sleep(4 * yardstickEvery)
	y.stop()
	cost, rounds, own := y.read()
	if rounds < 2 || cost <= 0 || own < cost {
		t.Errorf("after %v: %d rounds costing %v, threads used %v", 4*yardstickEvery, rounds, cost, own)
	}
	if per := cost / time.Duration(max(rounds, 1)); per < 20*time.Microsecond || per > 20*time.Millisecond {
		t.Errorf("a round took %v of CPU time; the nominal is %v", per, yardstickNominal)
	}
	if c, n, o := (*yardstick)(nil).read(); c != 0 || n != 0 || o != 0 {
		t.Error("a run without a yardstick must read as zero")
	}
}

func TestCheckAnswer(t *testing.T) {
	log := []tuple{{10, 1}, {20, 5}, {30, 3}, {40, 9}}
	if err := checkAnswer(answer{from: 15, to: 35, count: 2, avg: 4, max: 5}, log); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := checkAnswer(answer{from: 50, to: 60}, log); err != nil {
		t.Errorf("empty range with no row rejected: %v", err)
	}
	for _, wrong := range []answer{
		{from: 15, to: 35, count: 3, avg: 4, max: 5},
		{from: 15, to: 35, count: 2, avg: 4.1, max: 5},
		{from: 15, to: 35, count: 2, avg: 4, max: 9},
	} {
		if checkAnswer(wrong, log) == nil {
			t.Errorf("wrong answer %+v accepted", wrong)
		}
	}
}

// Every workload, traced, with a 2 s window: the audit must pass and every
// named metric must come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for real")
	}
	cfg := config{seed: 1, seconds: 2, trace: true, outDir: t.TempDir(), warmup: 500 * time.Millisecond, setups: 1}
	for _, def := range workloads {
		o, err := runWorkload(def, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", def.name, o.failed, o.attempted)
		}
		for _, r := range o.rows(false) {
			if r.Value <= 0 || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v", def.name, r.Metric, r.Value)
			}
		}
		if n := len(o.rows(true)); n != len(perLayer) {
			t.Errorf("%s: %d per-layer rows, want %d", def.name, n, len(perLayer))
		}
		for _, r := range o.rows(true) {
			if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v", def.name, r.Metric, r.Value)
			}
		}
		if o.budget == "" {
			t.Errorf("%s: traced run printed no budget", def.name)
		}
	}
}
