package figures

import (
	"fmt"
	"math"
	"time"

	"repro/internal/aqe"
	"repro/internal/core"
	"repro/internal/ldms"
	"repro/internal/score"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fig12Deployment populates an Apollo service and an LDMS store with the
// same telemetry: pfs_capacity plus per-node memory-capacity and
// availability tables, history samples each.
type fig12Deployment struct {
	apollo  *aqe.Engine
	ldmsEng *aqe.Engine
	svc     *core.Service
	nodes   int
}

func deployFig12(opts Options, nodes int) (*fig12Deployment, error) {
	clock := sim.NewVirtual(time.Unix(0, 0))
	svc := core.New(core.Config{Clock: clock, Mode: core.IntervalFixed})
	store := ldms.NewStore()
	// The paper's LDMS stores into MySQL or flat files; ScanPenalty models
	// the per-row cost of that backend (100ns/row is charitable — a real
	// RDBMS point query costs far more).
	store.ScanPenalty = 100 * time.Nanosecond
	history := opts.pick(200, 300)

	tables := []string{"pfs_capacity"}
	for n := 1; n <= nodes; n++ {
		tables = append(tables,
			fmt.Sprintf("node_%d_memory_capacity", n),
			fmt.Sprintf("node_%d_availability", n))
	}
	var vertices []*score.FactVertex
	for ti, table := range tables {
		val := float64(1000 + ti)
		hook := score.HookFunc{ID: telemetry.MetricID(table), Fn: func() (float64, error) { return val, nil }}
		v, err := svc.RegisterMetric(hook, core.WithPublishUnchanged())
		if err != nil {
			return nil, err
		}
		vertices = append(vertices, v)
	}
	for i := 0; i < history; i++ {
		for ti, v := range vertices {
			v.PollOnce()
			store.Insert(tables[ti], clock.Now().UnixNano(), float64(1000+ti))
		}
		clock.Advance(time.Second)
	}
	return &fig12Deployment{
		apollo:  svc.Engine(),
		ldmsEng: aqe.NewEngine(ldms.Resolver{Store: store}),
		svc:     svc,
		nodes:   nodes,
	}, nil
}

// resourceQuery builds the §4.4.1 resource query at the given complexity.
func resourceQuery(complexity, nodes, round int) string {
	q := "SELECT MAX(Timestamp), metric FROM pfs_capacity"
	for i := 1; i < complexity; i++ {
		n := (round+i)%nodes + 1
		table := fmt.Sprintf("node_%d_memory_capacity", n)
		if i%2 == 0 {
			table = fmt.Sprintf("node_%d_availability", n)
		}
		q += " UNION SELECT MAX(Timestamp), metric FROM " + table
	}
	return q
}

// measureQueries returns the median execution latency of count queries. A
// query takes microseconds, so one preemption or GC pause would move a mean
// by more than the node count or the complexity does.
func measureQueries(eng *aqe.Engine, complexity, nodes, count int) (time.Duration, error) {
	lats := make([]time.Duration, 0, count)
	for r := 0; r < count; r++ {
		q, err := aqe.Parse(resourceQuery(complexity, nodes, r))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := eng.Execute(q); err != nil {
			return 0, err
		}
		lats = append(lats, time.Since(t0))
	}
	return median(lats), nil
}

// Fig12a reproduces the latency-scaling study: median resource-query
// latency at complexity 3 while the middleware manages 1..16 nodes. The
// paper finds Apollo ~3.5x lower latency than LDMS.
func Fig12a(opts Options) (*Table, error) {
	t := &Table{
		ID:      "12a",
		Title:   "Median request latency when scaling nodes (complexity 3)",
		Columns: []string{"nodes", "apollo_us", "ldms_us", "speedup"},
	}
	nodeCounts := []int{1, 2, 4, 8, 16}
	if opts.Quick {
		nodeCounts = []int{1, 4, 16}
	}
	queries := opts.pick(30, 300)
	for _, nodes := range nodeCounts {
		dep, err := deployFig12(opts, nodes)
		if err != nil {
			return nil, err
		}
		apolloLat, err := measureQueries(dep.apollo, 3, nodes, queries)
		if err != nil {
			return nil, err
		}
		ldmsLat, err := measureQueries(dep.ldmsEng, 3, nodes, queries)
		if err != nil {
			return nil, err
		}
		dep.svc.Stop()
		t.AddRow(fmt.Sprint(nodes),
			f(float64(apolloLat.Nanoseconds())/1e3),
			f(float64(ldmsLat.Nanoseconds())/1e3),
			f(float64(ldmsLat)/float64(apolloLat)))
	}
	t.Notes = append(t.Notes,
		"paper: Apollo latency ~3.5x lower than LDMS; SCoRe answers from timestamp-indexed in-memory queues, LDMS scans its store")
	return t, nil
}

// Fig12b reproduces the query-complexity study at 16 nodes: complexity
// (number of UNIONed tables) sweeps 1..8.
func Fig12b(opts Options) (*Table, error) {
	t := &Table{
		ID:      "12b",
		Title:   "Median query execution time when scaling complexity (16 nodes)",
		Columns: []string{"complexity", "apollo_us", "ldms_us", "speedup"},
	}
	nodes := 16
	dep, err := deployFig12(opts, nodes)
	if err != nil {
		return nil, err
	}
	defer dep.svc.Stop()
	complexities := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if opts.Quick {
		complexities = []int{1, 4, 8}
	}
	queries := opts.pick(30, 300)
	for _, cx := range complexities {
		apolloLat, err := measureQueries(dep.apollo, cx, nodes, queries)
		if err != nil {
			return nil, err
		}
		ldmsLat, err := measureQueries(dep.ldmsEng, cx, nodes, queries)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(cx),
			f(float64(apolloLat.Nanoseconds())/1e3),
			f(float64(ldmsLat.Nanoseconds())/1e3),
			f(float64(ldmsLat)/float64(apolloLat)))
	}
	t.Notes = append(t.Notes,
		"paper: Apollo resolves UNION branches in parallel across vertices, flattening the complexity curve")
	return t, nil
}

// Fig12c reproduces the per-process CPU overhead comparison at 16 nodes,
// complexity 3: both services poll the same costed hooks at the same fixed
// interval for a real-time window while a client issues resource queries;
// per-process busy time is reported. The paper: Apollo costs only ~7% more
// CPU than LDMS while delivering 3.5x lower latency. Each side's monitor is
// one locked OS thread that polls every node once per interval, and is
// charged that thread's CPU time, as Fig. 5's components are: the least it
// spent in any of k equal parts of the window, times k, because another
// process's load can only add to a part's CPU time (by evicting the
// monitor's caches, say), never take from it, as Fig. 11 takes the least of
// its batches.
func Fig12c(opts Options) (*Table, error) {
	const hookCost, k = 100 * time.Microsecond, 5
	interval := 5 * time.Millisecond
	window := time.Duration(opts.pick(300, 1500)) * time.Millisecond
	nodes := opts.pick(4, 16)

	newHook := func(n int) score.Hook {
		return score.HookFunc{
			ID: telemetry.MetricID(fmt.Sprintf("node_%d_memory_capacity", n)),
			Fn: func() (float64, error) {
				burn(hookCost) // reading low-level counters
				return float64(n), nil
			},
		}
	}
	// monitor polls once untimed, so every table exists before the first
	// query, then runs a window of paced polls beside the query client, and
	// returns both sides' busy time.
	monitor := func(eng *aqe.Engine, pollAll func()) (mon, query time.Duration, err error) {
		pollAll()
		done := make(chan time.Duration)
		go func() {
			least := time.Duration(math.MaxInt64)
			for range k {
				least = min(least, paced(int(window/interval)/k, interval, pollAll))
			}
			done <- k * least
		}()
		query, err = queryClient(eng, nodes, window)
		return <-done, query, err
	}

	// Apollo: fact vertices over the costed hooks, publishing every poll as
	// LDMS stores every sample.
	svc := core.New(core.Config{})
	defer svc.Stop()
	var vertices []*score.FactVertex
	for n := 1; n <= nodes; n++ {
		v, err := svc.RegisterMetric(newHook(n), core.WithPublishUnchanged())
		if err != nil {
			return nil, err
		}
		vertices = append(vertices, v)
	}
	apolloBusy, apolloQueryBusy, err := monitor(svc.Engine(), func() {
		for _, v := range vertices {
			v.PollOnce()
		}
	})
	if err != nil {
		return nil, err
	}
	var apolloPolls uint64
	for _, v := range vertices {
		apolloPolls += v.Stats().Polls
	}

	// LDMS: samplers over the centralized store, queried by the same client.
	lsvc := ldms.NewService()
	var samplers []*ldms.Sampler
	for n := 1; n <= nodes; n++ {
		samplers = append(samplers, lsvc.AddSampler(newHook(n), interval, nil))
	}
	ldmsBusy, ldmsQueryBusy, err := monitor(aqe.NewEngine(ldms.Resolver{Store: lsvc.Store}), func() {
		for _, sm := range samplers {
			sm.PollOnce()
		}
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "12c",
		Title:   "Average CPU busy time per process over the measurement window",
		Columns: []string{"service", "monitor_cpu_%", "query_cpu_%", "polls"},
	}
	pct := func(d time.Duration) string { return f(100 * float64(d) / float64(window)) }
	t.AddRow("apollo", pct(apolloBusy), pct(apolloQueryBusy), fmt.Sprint(apolloPolls))
	t.AddRow("ldms", pct(ldmsBusy), pct(ldmsQueryBusy), fmt.Sprint(lsvc.Polls()))
	t.Notes = append(t.Notes,
		"paper: Apollo's overhead is ~7% above LDMS (the Pub-Sub machinery) while query latency is 3.5x lower")
	return t, nil
}

// queryClient is Fig. 12(c)'s query client, the same for both services: for
// window it issues a complexity-3 union over the nodes' memory-capacity tables
// every 2 ms through eng.Query (plan cache included) and returns the time
// spent inside Query.
func queryClient(eng *aqe.Engine, nodes int, window time.Duration) (time.Duration, error) {
	var busy time.Duration
	for r, end := 0, time.Now().Add(window); time.Now().Before(end); r++ {
		q := "SELECT MAX(Timestamp), metric FROM " + fmt.Sprintf("node_%d_memory_capacity", r%nodes+1) +
			" UNION SELECT MAX(Timestamp), metric FROM " + fmt.Sprintf("node_%d_memory_capacity", (r+1)%nodes+1) +
			" UNION SELECT MAX(Timestamp), metric FROM " + fmt.Sprintf("node_%d_memory_capacity", (r+2)%nodes+1)
		t0 := time.Now()
		if _, err := eng.Query(q); err != nil {
			return 0, err
		}
		busy += time.Since(t0)
		time.Sleep(2 * time.Millisecond)
	}
	return busy, nil
}
