package aqe

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// scanExec wraps fakeExec with a ScanRange that counts visited entries, to
// observe the early-LIMIT cutoff.
type scanExec struct {
	fakeExec
	visited atomic.Int64
}

func (s *scanExec) ScanRange(from, to int64, fn func(telemetry.Info) bool) {
	for _, e := range s.entries {
		if e.Timestamp < from || e.Timestamp > to {
			continue
		}
		s.visited.Add(1)
		if !fn(e) {
			return
		}
	}
}

type scanResolver map[string]*scanExec

func (m scanResolver) Resolve(table string) (score.Executor, error) {
	if e, ok := m[table]; ok {
		return e, nil
	}
	return nil, ErrNoSuchTable
}

func scanFixture(n int) scanResolver {
	ex := &scanExec{fakeExec: fakeExec{id: "t"}}
	for i := 0; i < n; i++ {
		ex.entries = append(ex.entries, telemetry.NewFact("t", int64(i), float64(i)))
	}
	return scanResolver{"t": ex}
}

func TestPlanCacheHitsAndMisses(t *testing.T) {
	e := NewEngine(fixture())
	planCacheStats := cacheStats(e)
	const src = "SELECT MAX(Timestamp), metric FROM pfs_capacity"
	p1, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Prepare did not return the cached plan")
	}
	hits, misses, size := planCacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("stats hits=%d misses=%d size=%d, want 1/1/1", hits, misses, size)
	}
	// Query goes through the same cache.
	if _, err := e.Query(src); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ = planCacheStats(); hits != 2 {
		t.Fatalf("hits=%d after Query, want 2", hits)
	}
}

// uncached is an engine that parses every text, the reference the shape cache
// is checked against.
func uncached(res Resolver) *Engine {
	e := NewEngine(res)
	e.cache = nil
	return e
}

func TestPlanCacheDisabled(t *testing.T) {
	e := uncached(fixture())
	planCacheStats := cacheStats(e)
	const src = "SELECT metric FROM pfs_capacity"
	p1, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("disabled cache returned a shared plan")
	}
	if hits, misses, size := planCacheStats(); hits != 0 || misses != 0 || size != 0 {
		t.Fatalf("disabled cache reported stats %d/%d/%d", hits, misses, size)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	e := NewEngine(fixture())
	e.cache = newPlanCache(2)
	planCacheStats := cacheStats(e)
	qa := "SELECT metric FROM pfs_capacity"
	qb := "SELECT Timestamp FROM pfs_capacity"
	qc := "SELECT source FROM pfs_capacity"
	for _, src := range []string{qa, qb, qa, qc} { // qc evicts qb (LRU)
		if _, err := e.Prepare(src); err != nil {
			t.Fatal(err)
		}
	}
	_, missesBefore, size := planCacheStats()
	if size != 2 {
		t.Fatalf("size=%d, want 2", size)
	}
	if _, err := e.Prepare(qa); err != nil { // still cached
		t.Fatal(err)
	}
	if _, misses, _ := planCacheStats(); misses != missesBefore {
		t.Fatalf("qa was evicted: misses %d -> %d", missesBefore, misses)
	}
	if _, err := e.Prepare(qb); err != nil { // evicted, re-misses
		t.Fatal(err)
	}
	if _, misses, _ := planCacheStats(); misses != missesBefore+1 {
		t.Fatalf("qb should have been evicted; misses=%d want %d", misses, missesBefore+1)
	}
}

func TestCompileTimeAggregateValidation(t *testing.T) {
	e := NewEngine(fixture())
	// AVG(Timestamp) is rejected at prepare time, even over an empty table.
	if _, err := e.Prepare("SELECT AVG(Timestamp) FROM empty"); err == nil {
		t.Fatal("AVG(Timestamp) compiled")
	}
	if _, err := e.Query("SELECT SUM(source) FROM empty WHERE Timestamp >= 0"); err == nil {
		t.Fatal("SUM(source) accepted")
	}
}

func TestEarlyLimitStopsScan(t *testing.T) {
	res := scanFixture(1000)
	e := NewEngine(res)
	out, err := e.Query("SELECT Timestamp FROM t WHERE Timestamp >= 0 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("rows=%d want 3", len(out.Rows))
	}
	if v := res["t"].visited.Load(); v != 3 {
		t.Fatalf("scan visited %d entries for LIMIT 3, want 3", v)
	}
}

func TestDescLimitKeepsNewest(t *testing.T) {
	res := scanFixture(10)
	e := NewEngine(res)
	out, err := e.Query("SELECT Timestamp FROM t WHERE Timestamp >= 0 ORDER BY Timestamp DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range out.Rows {
		got = append(got, r[0].Int)
	}
	if !reflect.DeepEqual(got, []int64{9, 8, 7}) {
		t.Fatalf("rows=%v want [9 8 7]", got)
	}
}

func TestBoundedParallelism(t *testing.T) {
	// Many branches with a parallelism bound of 2 must still produce rows in
	// branch order.
	res := fixture()
	e := NewEngine(res)
	e.workers = 2
	src := "SELECT MAX(Timestamp), metric FROM pfs_capacity"
	for i := 0; i < 5; i++ {
		src += " UNION SELECT MAX(Timestamp), metric FROM node_1_memory"
	}
	out, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 6 {
		t.Fatalf("rows=%d want 6", len(out.Rows))
	}
	if out.Rows[0][0].Int != 500 || out.Rows[1][0].Int != 500 {
		t.Fatalf("unexpected rows %v", out.Rows)
	}
	for i := 1; i < 6; i++ {
		if out.Rows[i][1].F != 42 {
			t.Fatalf("branch order lost: row %d = %v", i, out.Rows[i])
		}
	}
}

func TestEngineInstrumentation(t *testing.T) {
	r := obs.NewRegistry()
	e := NewEngine(fixture())
	e.Instrument(r)
	const src = "SELECT metric FROM pfs_capacity"
	for i := 0; i < 3; i++ {
		if _, err := e.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if v := r.Counter("aqe_plan_cache_hits_total").Value(); v != 2 {
		t.Fatalf("hits counter=%d want 2", v)
	}
	if v := r.Counter("aqe_plan_cache_misses_total").Value(); v != 1 {
		t.Fatalf("misses counter=%d want 1", v)
	}
	if v := r.Gauge("aqe_plan_cache_size").Value(); v != 1 {
		t.Fatalf("occupancy gauge=%v want 1", v)
	}
	if c := r.Snapshot().Histograms["aqe_query_seconds"].Count; c != 3 {
		t.Fatalf("latency histogram count=%d want 3", c)
	}
}

// benchSrc is the paper's canonical middleware query: latest value of
// several streams, one UNION branch per stream. Execution is O(1) per branch
// (the Latest fast path), so the cold/cached pair isolates what the plan
// cache removes: lexing, parsing, and compilation.
func benchQueryFixture() (mapResolver, string) {
	res := mapResolver{}
	src := ""
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("node_%d_capacity", i)
		ex := &fakeExec{id: telemetry.MetricID(name)}
		for ts := int64(1); ts <= 16; ts++ {
			ex.entries = append(ex.entries, telemetry.NewFact(ex.id, ts*100, float64(ts)))
		}
		res[name] = ex
		if i > 0 {
			src += " UNION "
		}
		src += "SELECT MAX(Timestamp), metric FROM " + name
	}
	return res, src
}

func BenchmarkQueryColdParse(b *testing.B) {
	res, src := benchQueryFixture()
	e := uncached(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryCachedPlan(b *testing.B) {
	res, src := benchQueryFixture()
	e := NewEngine(res)
	if _, err := e.Query(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAggregateScan tracks the streaming aggregate path over a
// large window (plan cached; dominated by the scan itself).
func BenchmarkQueryAggregateScan(b *testing.B) {
	e := NewEngine(scanFixture(4096))
	const src = "SELECT COUNT(*), AVG(metric), MIN(metric), MAX(metric) FROM t WHERE Timestamp >= 0"
	if _, err := e.Query(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(src); err != nil {
			b.Fatal(err)
		}
	}
}
