package aqe

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// execResolver resolves tables to any Executor.
type execResolver map[string]score.Executor

func (m execResolver) Resolve(table string) (score.Executor, error) {
	if e, ok := m[table]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, table)
}

// scanOnly hides a vertex's AggregateRange, so the engine scans it.
type scanOnly struct{ score.Executor }

// archivedVertex is a FactVertex of metric "m" whose ring keeps the newest
// ring tuples and evicts into an archive; vals land at timestamps 1, 2, ...
// It returns the vertex, its archive and the archive's read-bytes counter.
func archivedVertex(t *testing.T, ring int, vals []float64) (*score.FactVertex, *archive.Log, *obs.Counter) {
	t.Helper()
	log, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	reg := obs.NewRegistry()
	log.Instrument(reg, "m")
	bus := stream.NewBroker(0)
	t.Cleanup(func() { bus.Close() })
	v, err := score.NewFactVertex(score.FactConfig{
		Hook:       score.HookFunc{ID: "m", Fn: func() (float64, error) { return 0, nil }},
		Bus:        bus,
		Controller: adaptive.NewFixed(time.Second),
		Archive:    log,
		// A ring no bigger than the values keeps the first of them archived.
		HistorySize: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range vals {
		if !v.History().Append(telemetry.NewFact("m", int64(i+1), x)) {
			t.Fatalf("append %d rejected", i+1)
		}
	}
	return v, log, reg.Counter(obs.Name("archive_read_bytes_total", "log", "m"))
}

// cellsMatch compares two result rows: exactly, but floats within 1e-12
// relative, since a pushed-down SUM adds per-block sums.
func cellsMatch(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Int != b[i].Int || a[i].Str != b[i].Str {
			return false
		}
		if x, y := a[i].F, b[i].F; x != y && math.Abs(x-y) > 1e-12*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// TestAggregatePushdownReadsLess: an aggregate over a window the archive
// holds whole is answered from the archive's block folds, reading fewer
// archive bytes than a scan and answering the same; a window that reaches
// the ring, or a select list with a bare column, is scanned.
func TestAggregatePushdownReadsLess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1e3
	}
	v, _, readBytes := archivedVertex(t, 64, vals)
	pushed := NewEngine(execResolver{"m": v})
	scanned := NewEngine(execResolver{"m": scanOnly{v}})
	const aggs = "SELECT COUNT(*), SUM(metric), AVG(metric), MIN(metric), MAX(metric), MIN(Timestamp), MAX(Timestamp) FROM m"
	run := func(e *Engine, q string) ([][]Cell, uint64) {
		t.Helper()
		before := readBytes.Value()
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, readBytes.Value() - before
	}
	for _, c := range []struct {
		q    string
		push bool // expect fewer bytes through the pushdown
	}{
		{aggs + " WHERE Timestamp >= 100 AND Timestamp <= 3000", true},
		{aggs + " WHERE Timestamp >= 1 AND Timestamp <= 4032", true}, // up to the ring's floor, exclusive
		{aggs + " WHERE Timestamp >= 100 AND Timestamp <= 4033", false},
		{"SELECT COUNT(*), metric FROM m WHERE Timestamp >= 100 AND Timestamp <= 3000", false},
	} {
		got, gotBytes := run(pushed, c.q)
		want, wantBytes := run(scanned, c.q)
		if len(got) != 1 || len(want) != 1 || !cellsMatch(got[0], want[0]) {
			t.Fatalf("%s:\n pushdown %v\n scan     %v", c.q, got, want)
		}
		if c.push && (gotBytes >= wantBytes || wantBytes == 0) {
			t.Fatalf("%s: pushdown read %d archive bytes, scan %d: want fewer", c.q, gotBytes, wantBytes)
		}
		if !c.push && gotBytes != wantBytes {
			t.Fatalf("%s: read %d archive bytes, scan %d: want a scan", c.q, gotBytes, wantBytes)
		}
	}
}

// TestMinMaxIgnoreTupleOrder: MIN and MAX answer the same for any order of
// the same tuples, on the scan path and through the pushdown, before and
// after the archive writes its open block: a NaN makes both NaN, as it makes
// SUM, and -0 ranks below +0.
func TestMinMaxIgnoreTupleOrder(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, c := range []struct {
		orders   [2][]float64
		min, max float64
	}{
		{[2][]float64{{nan, 1, 2}, {1, nan, 2}}, nan, nan},
		{[2][]float64{{0, negZero}, {negZero, 0}}, negZero, 0},
	} {
		for _, vals := range c.orders {
			q := fmt.Sprintf("SELECT MIN(metric), MAX(metric) FROM m WHERE Timestamp >= 1 AND Timestamp <= %d", len(vals))
			scanned := &fakeExec{id: "m"}
			for i, x := range vals {
				scanned.entries = append(scanned.entries, telemetry.NewFact("m", int64(i+1), x))
			}
			// Two filler tuples keep the ring's floor above the window.
			v, log, _ := archivedVertex(t, 2, append(append([]float64(nil), vals...), 7, 7))
			for _, path := range []struct {
				name string
				r    Resolver
			}{{"scan", execResolver{"m": scanned}}, {"pushdown", execResolver{"m": v}}, {"pushdown after sync", execResolver{"m": v}}} {
				if path.name == "pushdown after sync" {
					if err := log.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				res, err := NewEngine(path.r).Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if min, max := res.Rows[0][0].F, res.Rows[0][1].F; !sameFloat(min, c.min) || !sameFloat(max, c.max) {
					t.Errorf("%s over %v: MIN %v MAX %v, want %v and %v", path.name, vals, min, max, c.min, c.max)
				}
			}
		}
	}
}

// sameFloat reports whether a and b are the same float, sign of zero
// included, any NaN matching any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
