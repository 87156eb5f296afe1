package aqe

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// fakeExec is an in-memory Executor.
type fakeExec struct {
	id      telemetry.MetricID
	entries []telemetry.Info
}

func (f *fakeExec) Metric() telemetry.MetricID { return f.id }
func (f *fakeExec) Latest() (telemetry.Info, bool) {
	if len(f.entries) == 0 {
		return telemetry.Info{}, false
	}
	return f.entries[len(f.entries)-1], true
}
func (f *fakeExec) ScanRange(from, to int64, fn func(telemetry.Info) bool) {
	for _, e := range f.entries {
		if e.Timestamp >= from && e.Timestamp <= to && !fn(e) {
			return
		}
	}
}

// cacheStats instruments e on a fresh registry and returns a reader of its
// plan-cache hit and miss counters and occupancy gauge.
func cacheStats(e *Engine) func() (hits, misses uint64, size int) {
	reg := obs.NewRegistry()
	e.Instrument(reg)
	return func() (uint64, uint64, int) {
		return reg.Counter("aqe_plan_cache_hits_total").Value(),
			reg.Counter("aqe_plan_cache_misses_total").Value(),
			int(reg.Gauge("aqe_plan_cache_size").Value())
	}
}

type mapResolver map[string]*fakeExec

func (m mapResolver) Resolve(table string) (score.Executor, error) {
	if e, ok := m[table]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
}

func fixture() mapResolver {
	caps := &fakeExec{id: "pfs_capacity"}
	for i := 1; i <= 5; i++ {
		caps.entries = append(caps.entries, telemetry.NewFact("pfs_capacity", int64(i*100), float64(1000-i*10)))
	}
	mem := &fakeExec{id: "node_1_memory"}
	mem.entries = append(mem.entries, telemetry.NewPredictedFact("node_1_memory", 500, 42))
	return mapResolver{"pfs_capacity": caps, "node_1_memory": mem, "empty": {id: "empty"}}
}

func TestParseCanonicalQuery(t *testing.T) {
	q, err := Parse(`SELECT MAX(Timestamp), metric FROM pfs_capacity
UNION
SELECT MAX(Timestamp), metric FROM node_1_memory;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Selects) != 2 {
		t.Fatalf("branches=%d", len(q.Selects))
	}
	if q.Selects[0].Table != "pfs_capacity" || q.Selects[1].Table != "node_1_memory" {
		t.Fatalf("tables=%v,%v", q.Selects[0].Table, q.Selects[1].Table)
	}
	it := q.Selects[0].Items
	if len(it) != 2 || it[0].Agg != AggMax || it[0].Col != ColTimestamp || it[1].Agg != AggNone || it[1].Col != ColMetric {
		t.Fatalf("items=%+v", it)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT metric",
		"SELECT metric FROM",
		"SELECT bogus FROM t",
		"SELECT MAX(bogus) FROM t",
		"SELECT MAX(Timestamp FROM t",
		"SELECT metric FROM t WHERE value = 1",
		"SELECT metric FROM t WHERE Timestamp !! 3",
		"SELECT metric FROM t WHERE Timestamp BETWEEN x AND y",
		"SELECT metric FROM t garbage",
		"SELECT metric FROM t WHERE Timestamp BETWEEN 1 2",
		"SELECT metric FROM t @",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%q: non-syntax error %v", src, err)
			}
		}
	}
}

func TestParseWhereForms(t *testing.T) {
	cases := []struct {
		src      string
		from, to int64
	}{
		{"SELECT metric FROM t WHERE Timestamp BETWEEN 10 AND 20", 10, 20},
		{"SELECT metric FROM t WHERE Timestamp >= 10 AND Timestamp <= 20", 10, 20},
		{"SELECT metric FROM t WHERE Timestamp > 9 AND Timestamp < 21", 10, 20},
		{"SELECT metric FROM t WHERE Timestamp = 15", 15, 15},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		w := q.Selects[0].Where
		if w == nil || w.From != c.from || w.To != c.to {
			t.Fatalf("%q: where=%+v", c.src, w)
		}
	}
}

func TestParseUnionAll(t *testing.T) {
	q, err := Parse("SELECT metric FROM a UNION ALL SELECT metric FROM b")
	if err != nil || len(q.Selects) != 2 {
		t.Fatalf("q=%v err=%v", q, err)
	}
}

func TestLatestQuery(t *testing.T) {
	e := NewEngine(fixture())
	res, err := e.Query("SELECT MAX(Timestamp), metric FROM pfs_capacity")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Columns[0] != "MAX(Timestamp)" || res.Columns[1] != "metric" {
		t.Fatalf("cols=%v", res.Columns)
	}
	if res.Rows[0][0].Int != 500 || res.Rows[0][1].F != 950 {
		t.Fatalf("row=%v", res.Rows[0])
	}
}

func TestUnionParallelOrder(t *testing.T) {
	e := NewEngine(fixture())
	res, err := e.Query(`SELECT MAX(Timestamp), metric FROM pfs_capacity
		UNION SELECT MAX(Timestamp), metric FROM node_1_memory`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	// Branch order preserved.
	if res.Rows[0][1].F != 950 || res.Rows[1][1].F != 42 {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	q := `SELECT MAX(Timestamp), metric FROM pfs_capacity UNION SELECT MAX(Timestamp), metric FROM node_1_memory`
	par := NewEngine(fixture())
	seq := NewEngine(fixture())
	seq.workers = 1
	r1, err := par.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := seq.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatalf("parallel %v != sequential %v", r1, r2)
	}
}

func TestRangeScan(t *testing.T) {
	e := NewEngine(fixture())
	res, err := e.Query("SELECT Timestamp, metric FROM pfs_capacity WHERE Timestamp BETWEEN 200 AND 400")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][0].Int != 200 || res.Rows[2][0].Int != 400 {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := NewEngine(fixture())
	res, err := e.Query("SELECT COUNT(*), AVG(metric), SUM(metric), MIN(metric), MAX(metric), MIN(Timestamp) FROM pfs_capacity WHERE Timestamp >= 100")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Int != 5 {
		t.Fatalf("count=%v", row[0])
	}
	if row[1].F != 970 { // avg of 990..950
		t.Fatalf("avg=%v", row[1])
	}
	if row[2].F != 4850 {
		t.Fatalf("sum=%v", row[2])
	}
	if row[3].F != 950 || row[4].F != 990 {
		t.Fatalf("min/max=%v/%v", row[3], row[4])
	}
	if row[5].Int != 100 {
		t.Fatalf("min ts=%v", row[5])
	}
}

func TestSourceColumn(t *testing.T) {
	e := NewEngine(fixture())
	res, err := e.Query("SELECT metric, source FROM node_1_memory")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].Str != "predicted" {
		t.Fatalf("source=%v", res.Rows[0][1])
	}
}

func TestEmptyTableYieldsNoRows(t *testing.T) {
	e := NewEngine(fixture())
	res, err := e.Query("SELECT MAX(Timestamp), metric FROM empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestNoSuchTable(t *testing.T) {
	e := NewEngine(fixture())
	if _, err := e.Query("SELECT metric FROM ghost"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err=%v", err)
	}
}

func TestArityMismatch(t *testing.T) {
	e := NewEngine(fixture())
	if _, err := e.Query("SELECT metric FROM pfs_capacity UNION SELECT metric, Timestamp FROM node_1_memory"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestAvgRequiresMetric(t *testing.T) {
	e := NewEngine(fixture())
	if _, err := e.Query("SELECT AVG(Timestamp) FROM pfs_capacity WHERE Timestamp >= 0"); err == nil {
		t.Fatal("AVG(Timestamp) accepted")
	}
}

func TestCellString(t *testing.T) {
	if intCell(5).String() != "5" || floatCell(2.5).String() != "2.5" || strCell("x").String() != "x" {
		t.Fatal("cell rendering wrong")
	}
}

func TestResultRendering(t *testing.T) {
	e := NewEngine(fixture())
	res, _ := e.Query("SELECT MAX(Timestamp), metric FROM pfs_capacity")
	var sb strings.Builder
	for _, c := range res.Columns {
		sb.WriteString(c + "\t")
	}
	for _, row := range res.Rows {
		for _, c := range row {
			sb.WriteString(c.String() + "\t")
		}
	}
	out := sb.String()
	if !strings.Contains(out, "500") || !strings.Contains(out, "950") {
		t.Fatalf("rendered=%q", out)
	}
}

func BenchmarkParse(b *testing.B) {
	src := "SELECT MAX(Timestamp), metric FROM pfs_capacity UNION SELECT MAX(Timestamp), metric FROM node_1_memory UNION SELECT MAX(Timestamp), metric FROM node_2_availability"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatestQuery(b *testing.B) {
	e := NewEngine(fixture())
	q, err := Parse("SELECT MAX(Timestamp), metric FROM pfs_capacity")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}
