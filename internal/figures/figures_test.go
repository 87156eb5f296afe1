package figures

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/delphi"
	"repro/internal/insights"
	"repro/internal/nn"
	"repro/internal/workloads"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

// value returns the cell in column col of the row whose leading cells are
// keys.
func value(t *testing.T, tb *Table, col string, keys ...string) string {
	t.Helper()
	c := slices.Index(tb.Columns, col)
	if c < 0 {
		t.Fatalf("fig %s: no column %q in %v", tb.ID, col, tb.Columns)
	}
	for _, row := range tb.Rows {
		if slices.Equal(row[:len(keys)], keys) {
			return row[c]
		}
	}
	t.Fatalf("fig %s: no row %v", tb.ID, keys)
	return ""
}

// num is value parsed as a number.
func num(t *testing.T, tb *Table, col string, keys ...string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(value(t, tb, col, keys...), 64)
	if err != nil {
		t.Fatalf("fig %s: %s of %v: %v", tb.ID, col, keys, err)
	}
	return v
}

// dur is value parsed as a duration.
func dur(t *testing.T, tb *Table, col string, keys ...string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(value(t, tb, col, keys...))
	if err != nil {
		t.Fatalf("fig %s: %s of %v: %v", tb.ID, col, keys, err)
	}
	return d
}

// column returns column col of every row, in row order, as numbers.
func column(t *testing.T, tb *Table, col string) []float64 {
	t.Helper()
	out := make([]float64, len(tb.Rows))
	for i, row := range tb.Rows {
		out[i] = num(t, tb, col, row...)
	}
	return out
}

// figureChecks is the one place that decides whether a figure reproduces:
// for each generator ID, the verdict EXPERIMENTS.md gives, applied to the
// quick-mode table at seed 1. Each check quotes the paper's claim it encodes;
// a ◑ verdict asserts the part that holds. A bound on a timing keeps the
// margin stated beside it, which holds with GOMAXPROCS=2 beside a parallel
// test run (scripts/verify.sh runs these checks five times on two cores).
var figureChecks = map[string]func(t *testing.T, tb *Table){
	// "All 15 I/O curations with their formalizations."
	"t1": func(t *testing.T, tb *Table) {
		for _, row := range tb.Rows {
			if strings.TrimSpace(row[2]) == "" {
				t.Errorf("row %s (%s) has no value", row[0], row[1])
			}
		}
		// The rows a Fact vertex polls through its hook equal the curation
		// computed directly, and rows 5/7/8 rated the hdd with bad blocks.
		c, err := table1Cluster()
		if err != nil {
			t.Fatal(err)
		}
		busy := c.Node("comp00").Device("nvme0").Snapshot()
		worn := c.Node("stor00").Device("hdd0").Snapshot()
		for row, want := range map[string]float64{
			"1":     insights.MSCA(busy),
			"2":     insights.InterferenceFactor(busy),
			"5":     insights.DeviceHealth(worn),
			"7":     insights.DeviceFaultTolerance(worn),
			"8":     insights.DeviceDegradationRate(worn),
			"10":    float64(insights.TierRemainingCapacity(c, cluster.TierNVMe)) / float64(cluster.GB),
			"11/14": insights.EnergyPerTransfer(c.Node("comp00")),
			"13":    insights.DeviceLoad(busy),
		} {
			if got := strings.Fields(value(t, tb, "value", row))[0]; got != f(want) {
				t.Errorf("row %s = %s, the curation computed directly is %s", row, got, f(want))
			}
		}
	},
	// "A model trained only on simple synthetic datasets predicts metrics it
	// has not been trained for", at low inference cost. ◑: the seasonal,
	// sawtooth and spike rows are the stated architecture's limit and are not
	// asserted.
	"3c": func(t *testing.T, tb *Table) {
		for _, ds := range []string{"trend-up", "trend-down", "random-walk"} {
			if r2 := num(t, tb, "r2", ds); r2 < 0.95 { // 0.999, 0.997, 0.969
				t.Errorf("%s: R² %.3f < 0.95", ds, r2)
			}
		}
		if r2 := num(t, tb, "r2", "level-shift"); r2 < 0.7 { // 0.79
			t.Errorf("level-shift: R² %.3f < 0.7", r2)
		}
		for _, ds := range []string{"nvme-tps", "ssd-tps", "hdd-tps"} {
			if r2 := num(t, tb, "r2", ds); r2 <= 0 { // 0.39
				t.Errorf("%s: R² %.3f, no better than the mean", ds, r2)
			}
		}
		for i, us := range column(t, tb, "inference_us") {
			if us >= 10 { // ~0.07 µs: a 150x margin
				t.Errorf("%s: inference %.3g µs ≥ 10 µs", tb.Rows[i][0], us)
			}
		}
	},
	// "The Fact Vertex spends 97.5% of its time in the monitor hook and 1.8%
	// in publish": the queue is not the bottleneck.
	"4": func(t *testing.T, tb *Table) {
		if hook := num(t, tb, "monitor_hook_%", "fact"); hook < 95 { // 99.2
			t.Errorf("fact vertex hook share %.3g%% < 95%%", hook)
		}
		if pub := num(t, tb, "publish_%", "fact"); pub > 2 { // 0.37
			t.Errorf("fact vertex publish share %.3g%% > 2%%", pub)
		}
	},
	// "Apollo 13.32%, IOR 7.2%, SAR 4.51%, PAT 27.2%": PAT > Apollo > IOR > SAR.
	"5": func(t *testing.T, tb *Table) {
		order := []string{"pat_total", "apollo", "ior", "sar"}
		for i := 1; i < len(order); i++ {
			hi, lo := num(t, tb, "cpu_%", order[i-1]), num(t, tb, "cpu_%", order[i])
			if hi <= lo {
				t.Errorf("cpu share %s %.3g%% ≤ %s %.3g%%", order[i-1], hi, order[i], lo)
			}
		}
	},
	// "Throughput peaks at 16 client threads and degrades beyond." ◑: on one
	// host the peak moves; what holds is that it does not collapse past it.
	"6a": func(t *testing.T, tb *Table) {
		rates := column(t, tb, "events_per_sec")
		peak := slices.Index(rates, slices.Max(rates))
		for i, r := range rates[peak+1:] {
			if r < rates[peak]/2 {
				t.Errorf("%s threads: %.3g events/s, under half the %.3g peak", tb.Rows[peak+1+i][0], r, rates[peak])
			}
		}
	},
	// "SCoRe scales to 32 subscriber nodes without significant slowdown": the
	// aggregate delivery rate does not fall as subscribers multiply.
	"6b": func(t *testing.T, tb *Table) {
		agg := column(t, tb, "aggregate_deliveries_per_sec")
		if agg[len(agg)-1] < agg[0] { // 96 k -> 1.06 M
			t.Errorf("aggregate deliveries fell from %.3g/s to %.3g/s", agg[0], agg[len(agg)-1])
		}
	},
	// "Latency increases with node degree until an upper bound."
	"7a": latencyGrows,
	// "Latency increases with Hamming distance."
	"7b": latencyGrows,
	// "Fixed 5 s is near-ideal for the regular workload; complex AIMD is the
	// most accurate on irregular workloads, at an associated cost."
	"8": func(t *testing.T, tb *Table) {
		if cost, acc := num(t, tb, "cost", "regular", "fixed-5s"), num(t, tb, "accuracy", "regular", "fixed-5s"); acc < 0.95 || cost > 0.25 {
			t.Errorf("regular fixed-5s cost %.3g accuracy %.3g", cost, acc)
		}
		sCost, sAcc := num(t, tb, "cost", "irregular", "simple-aimd"), num(t, tb, "accuracy", "irregular", "simple-aimd")
		cCost, cAcc := num(t, tb, "cost", "irregular", "complex-aimd"), num(t, tb, "accuracy", "irregular", "complex-aimd")
		if cAcc <= sAcc {
			t.Errorf("irregular: complex AIMD accuracy %.3g ≤ simple %.3g", cAcc, sAcc)
		}
		if cCost < sCost {
			t.Errorf("irregular: complex AIMD cost %.3g < simple %.3g", cCost, sCost)
		}
		if sCost >= 1 || cCost >= 1 {
			t.Errorf("irregular: adaptive cost %.3g, %.3g not below 1 s polling", sCost, cCost)
		}
	},
	// "The predictive model provides high-resolution telemetry at a fraction
	// of the cost with only minimal loss of data."
	"9":  delphiFillsTheGaps,
	"10": delphiFillsTheGaps,
	// "Delphi (50 parameters) is comparable to per-metric LSTMs at far lower
	// cost." Quick mode's LSTMs are small and its R² deterministic: the gaps
	// are 0.11, 0.22 and 0.27, so the full-mode "within ~0.15" does not apply.
	"11": func(t *testing.T, tb *Table) {
		for _, row := range tb.Rows {
			if row[1] != "lstm" {
				continue
			}
			m := row[0]
			if p := num(t, tb, "params", m, "delphi"); p != 50 {
				t.Errorf("%s: delphi has %g parameters, want 50", m, p)
			}
			// ~0.04 µs vs ~30 µs.
			if d, l := num(t, tb, "inference_us", m, "delphi"), num(t, tb, "inference_us", m, "lstm"); d > l/100 {
				t.Errorf("%s: delphi inference %.3g µs > lstm's %.3g µs / 100", m, d, l)
			}
			if gap := num(t, tb, "r2", m, "lstm") - num(t, tb, "r2", m, "delphi"); gap > 0.3 {
				t.Errorf("%s: lstm R² ahead of delphi's by %.3f > 0.3", m, gap)
			}
			// "15 min vs 3–5 h": one Delphi model, trained once for every
			// metric, against one LSTM per metric. ~2 ms vs ~80 ms.
			if d, l := dur(t, tb, "train", m, "delphi"), dur(t, tb, "train", m, "lstm"); d >= l {
				t.Errorf("%s: delphi trains in %v, not below the lstm's %v", m, d, l)
			}
		}
	},
	// "Sub-millisecond latency for acquiring complex insights", ~3.5x below
	// LDMS at every node count. ◑: the gap to LDMS overshoots; what is
	// asserted is that Apollo wins, stays under 1 ms and stays flat.
	"12a": func(t *testing.T, tb *Table) {
		lat := column(t, tb, "apollo_us")
		for i, us := range lat {
			if us >= 1000 {
				t.Errorf("%s nodes: apollo %.3g µs, not sub-millisecond", tb.Rows[i][0], us)
			}
			if s := num(t, tb, "speedup", tb.Rows[i][0]); s <= 1 {
				t.Errorf("%s nodes: apollo not faster than ldms (speedup %.3g)", tb.Rows[i][0], s)
			}
		}
		if lo, hi := slices.Min(lat), slices.Max(lat); hi > 4*lo { // 1.1-2.4x apart
			t.Errorf("apollo latency %.3g-%.3g µs across node counts, not flat within 4x", lo, hi)
		}
	},
	// "Apollo resolves UNION branches in parallel, flattening the complexity
	// curve": from complexity 1 to 8 it adds under a tenth of the latency LDMS
	// adds (~4 µs vs ~300 µs). Not the growth factor: Apollo's median grows
	// ~5x against LDMS's ~8x, and both engines fan branches out to two
	// workers on two cores, so the factors overlap from run to run.
	"12b": func(t *testing.T, tb *Table) {
		ap, ld := column(t, tb, "apollo_us"), column(t, tb, "ldms_us")
		apAdds, ldAdds := ap[len(ap)-1]-ap[0], ld[len(ld)-1]-ld[0]
		if apAdds >= ldAdds/10 {
			t.Errorf("from complexity 1 to 8 apollo adds %.3g µs, ldms %.3g µs", apAdds, ldAdds)
		}
	},
	// "Apollo costs only ~7% more CPU than LDMS." Each side's monitor
	// thread is charged its own CPU time, so a poll another process
	// preempts is not charged for the wait. The bound, -20% to +50%, is
	// what it was when the shares were wall time.
	"12c": func(t *testing.T, tb *Table) {
		ap, ld := num(t, tb, "monitor_cpu_%", "apollo"), num(t, tb, "monitor_cpu_%", "ldms")
		if ap > 1.5*ld || ap < 0.8*ld {
			t.Errorf("apollo monitor CPU %.3g%% vs ldms %.3g%%, outside -20%% .. +50%%", ap, ld)
		}
	},
	// "HDPE 2.3x over PFS; Apollo +18% over round-robin."
	"13a": hierarchyThenApollo,
	// "HDFE 33% over PFS; Apollo +16% over round-robin."
	"13b": hierarchyThenApollo,
	// "Replication worsens VPIC writes but improves BD-CATS reads; Apollo
	// ~+12% over round-robin."
	"13c": func(t *testing.T, tb *Table) {
		if ap, rr := dur(t, tb, "vpic_write_time", "apollo"), dur(t, tb, "vpic_write_time", "round-robin"); ap >= rr {
			t.Errorf("vpic write: apollo %v ≥ round-robin %v", ap, rr)
		}
		pfs := dur(t, tb, "bdcats_read_time", "pfs-only")
		for _, p := range []string{"round-robin", "apollo"} {
			if r := dur(t, tb, "bdcats_read_time", p); r >= pfs {
				t.Errorf("bd-cats read: %s replicas %v ≥ pfs %v", p, r, pfs)
			}
		}
	},
}

// latencyGrows checks Fig. 7: the latency of the last row exceeds the first's.
func latencyGrows(t *testing.T, tb *Table) {
	lat := column(t, tb, "latency_us")
	if lat[len(lat)-1] <= lat[0] {
		t.Errorf("latency %.3g µs at %s, %.3g µs at %s: no growth",
			lat[0], tb.Rows[0][0], lat[len(lat)-1], tb.Rows[len(lat)-1][0])
	}
}

// delphiFillsTheGaps checks Figs. 9 and 10: both adaptive approaches poll
// less than the 1 s baseline, and Delphi restores near-baseline resolution at
// the adaptive cost with most predicted seconds within one write of the truth.
func delphiFillsTheGaps(t *testing.T, tb *Table) {
	base := num(t, tb, "hook_calls", "baseline-1s")
	for _, a := range []string{"adaptive", "adaptive+delphi"} {
		if calls := num(t, tb, "hook_calls", a); calls >= base {
			t.Errorf("%s: %g hook calls, baseline %g", a, calls, base)
		}
	}
	if res, adaptRes := num(t, tb, "resolution", "adaptive+delphi"), num(t, tb, "resolution", "adaptive"); res <= adaptRes || res < 0.9 {
		t.Errorf("delphi resolution %.3g (adaptive %.3g)", res, adaptRes)
	}
	if acc := num(t, tb, "accuracy", "baseline-1s"); acc != 1 {
		t.Errorf("1 s baseline accuracy %.3g", acc)
	}
	if acc := num(t, tb, "accuracy", "adaptive+delphi"); acc < 0.7 {
		t.Errorf("delphi accuracy %.3g < 0.7", acc)
	}
}

// hierarchyThenApollo checks Figs. 13(a) and (b): the buffering hierarchy
// beats the PFS alone, and the Apollo-aware policy beats round-robin.
func hierarchyThenApollo(t *testing.T, tb *Table) {
	pfs, rr, ap := dur(t, tb, "io_time", "pfs-only"), dur(t, tb, "io_time", "round-robin"), dur(t, tb, "io_time", "apollo")
	if rr >= pfs || ap >= rr {
		t.Errorf("I/O time: pfs-only %v, round-robin %v, apollo %v; want each below the one before", pfs, rr, ap)
	}
}

// TestFiguresReproduce runs every generator once at quick settings: subtest
// fig<ID> checks the table is well formed, and fig<ID>/shape applies the
// figure's check.
func TestFiguresReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is seconds-long even in quick mode")
	}
	for id := range figureChecks {
		if _, ok := ByID(id); !ok {
			t.Errorf("check for fig %s, which no generator produces", id)
		}
	}
	for _, g := range All() {
		t.Run("fig"+g.ID, func(t *testing.T) {
			check, ok := figureChecks[g.ID]
			if !ok {
				t.Fatalf("fig %s has no check", g.ID)
			}
			tb, err := g.Fn(quick())
			if err != nil {
				t.Fatalf("fig %s: %v", g.ID, err)
			}
			if tb.ID != g.ID {
				t.Fatalf("table id %q != generator id %q", tb.ID, g.ID)
			}
			if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
				t.Fatalf("fig %s produced an empty table", g.ID)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Fatalf("fig %s: row arity %d != %d columns", g.ID, len(row), len(tb.Columns))
				}
			}
			if out := tb.String(); !strings.Contains(out, tb.Title) {
				t.Fatalf("rendering lost the title: %s", out)
			}
			t.Run("shape", func(t *testing.T) { check(t, tb) })
		})
	}
}

// TestAblations asserts the verdicts of DESIGN §4's ablations, each
// deterministic.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a Delphi model")
	}
	irregular := workloads.HACCIrregular(10*time.Minute, 250e9, 42)
	complexAIMD := func(t *testing.T, window int) adaptive.Result {
		cfg := adaptive.DefaultConfig() // threshold 0: any capacity change counts
		cfg.Window = window
		ctrl, err := adaptive.NewComplexAIMD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return adaptive.Evaluate(irregular, ctrl, time.Second, 0)
	}

	// Window 10, the paper's choice, buys accuracy over window 1; window 50
	// degenerates into 1 s polling. Cost 0.40/0.81/0.995, accuracy
	// 0.86/0.95/1.0.
	t.Run("aimd-window", func(t *testing.T) {
		var cost, acc []float64
		for _, w := range []int{1, 10, 50} {
			res := complexAIMD(t, w)
			cost, acc = append(cost, res.Cost()), append(acc, res.Accuracy())
		}
		if !slices.IsSorted(cost) || !slices.IsSorted(acc) || cost[0] == cost[1] || acc[0] == acc[1] {
			t.Errorf("windows 1/10/50: cost %.3g, accuracy %.3g; want both to rise with the window", cost, acc)
		}
		if cost[2] < 0.99 || acc[2] < 0.99 {
			t.Errorf("window 50: cost %.3g accuracy %.3g, want 1 s polling", cost[2], acc[2])
		}
	})

	// Future work (§6): the permutation-entropy heuristic is far cheaper than
	// complex AIMD but under-polls staircases, so it "needs a more intricate
	// heuristic metric". Cost 0.098 vs 0.81, accuracy 0.39 vs 0.95.
	t.Run("entropy-heuristic", func(t *testing.T) {
		cfg := adaptive.DefaultConfig()
		cfg.Threshold = 0.05 // entropy-delta units
		ctrl, err := adaptive.NewEntropyAIMD(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		ent, cplx := adaptive.Evaluate(irregular, ctrl, time.Second, 0), complexAIMD(t, 10)
		if ent.Cost()*5 > cplx.Cost() {
			t.Errorf("entropy cost %.3g, complex AIMD %.3g: not 5x cheaper", ent.Cost(), cplx.Cost())
		}
		if ent.Accuracy() >= cplx.Accuracy() {
			t.Errorf("entropy accuracy %.3g ≥ complex AIMD %.3g", ent.Accuracy(), cplx.Accuracy())
		}
	})

	// Delphi's frozen feature stack is what carries the 50-parameter budget:
	// on an unseen SAR metric it scores R² 0.735 where a plain 5->1 dense
	// trained the same way scores -0.52.
	t.Run("delphi-stack", func(t *testing.T) {
		trace := workloads.SARSeries(workloads.MetricTPS, "nvme", 600, 3)
		train, test := trace[:300], trace[300:]
		m, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 15, SeriesPerFeature: 3, SeriesLen: 150})
		if err != nil {
			t.Fatal(err)
		}
		_, _, stacked, err := m.Evaluate(test)
		if err != nil {
			t.Fatal(err)
		}

		dense := nn.NewDense(delphi.WindowSize, 1)
		xs, ys := delphi.Windows(train, delphi.WindowSize)
		if _, err := dense.Fit(xs, ys, nn.FitOptions{Epochs: 15, LR: 0.01}); err != nil {
			t.Fatal(err)
		}
		var preds, truth []float64
		norm := make([]float64, delphi.WindowSize)
		for i := 0; i+delphi.WindowSize < len(test); i++ {
			loc, scale := delphi.NormalizeInto(norm, test[i:i+delphi.WindowSize])
			p := dense.B[0]
			for j, w := range dense.W {
				p += w * norm[j]
			}
			preds = append(preds, p*scale+loc)
			truth = append(truth, test[i+delphi.WindowSize])
		}
		_, plain := scoreRaw(preds, truth)
		if stacked < 0.7 || plain >= 0 {
			t.Errorf("R² stacked %.3f, plain dense %.3f; want > 0.7 and < 0", stacked, plain)
		}
	})
}

// TestExperimentsCoversEveryFigure fails when a generator has no section in
// EXPERIMENTS.md: a "## " heading that names it as "Table 1", "Fig. 12(a)" or
// one of a "Figs. 9 & 10" pair.
func TestExperimentsCoversEveryFigure(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`(?:Figs?\.|&) (\d+)(?:\(([a-z])\))?`)
	named := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		if strings.Contains(line, "Table 1") {
			named["t1"] = true
		}
		for _, m := range ref.FindAllStringSubmatch(line, -1) {
			named[m[1]+m[2]] = true
		}
	}
	for _, g := range All() {
		if !named[g.ID] {
			t.Errorf("fig %s (%s) has no EXPERIMENTS.md heading", g.ID, g.Title)
		}
	}
}

func TestByID(t *testing.T) {
	if g, ok := ByID("8"); !ok || g.ID != "8" {
		t.Fatal("ByID(8) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) succeeded")
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}, Notes: []string{"n1"}}
	tb.AddRow("1", "2")
	out := tb.String()
	for _, want := range []string{"demo", "a", "bb", "1", "2", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestEvaluateWithDelphiNoModel(t *testing.T) {
	trace := []float64{1, 2, 3, 4, 5, 6}
	run := evaluateWithDelphi(trace, adaptive.NewFixed(time.Second), nil, 0)
	if run.HookCalls != 6 || run.Accuracy != 1 {
		t.Fatalf("run=%+v", run)
	}
	empty := evaluateWithDelphi(nil, adaptive.NewFixed(time.Second), nil, 0)
	if empty.HookCalls != 0 {
		t.Fatalf("empty=%+v", empty)
	}
}

func TestResourceQueryComplexity(t *testing.T) {
	q := resourceQuery(3, 16, 0)
	if strings.Count(q, "SELECT") != 3 {
		t.Fatalf("query=%q", q)
	}
	if !strings.Contains(q, "pfs_capacity") {
		t.Fatalf("query=%q", q)
	}
}
