package aqe

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

// Property: whitespace and keyword case never change parse results.
func TestParseCaseAndWhitespaceInsensitive(t *testing.T) {
	variants := []string{
		"SELECT MAX(Timestamp), metric FROM t1 UNION SELECT metric, MAX(Timestamp) FROM t2",
		"select max(timestamp), metric from t1 union select metric, max(timestamp) from t2",
		"  SeLeCt   MAX( Timestamp ) ,  metric\n FROM t1\nUNION\nSELECT metric , MAX(Timestamp) FROM t2 ;",
	}
	var first *Query
	for i, src := range variants {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if first == nil {
			first = q
			continue
		}
		if fmt.Sprintf("%+v", q) != fmt.Sprintf("%+v", first) {
			t.Fatalf("variant %d parses differently:\n%+v\n%+v", i, q, first)
		}
	}
}

// Property: for any generated valid query, Parse succeeds and Complexity
// equals the number of UNION branches generated.
func TestParseGeneratedQueriesQuick(t *testing.T) {
	items := []string{
		"metric", "Timestamp", "source",
		"MAX(Timestamp)", "MIN(Timestamp)", "MAX(metric)", "MIN(metric)",
		"AVG(metric)", "SUM(metric)", "COUNT(*)",
	}
	wheres := []string{
		"",
		" WHERE Timestamp BETWEEN 10 AND 99",
		" WHERE Timestamp >= 5",
		" WHERE Timestamp <= 100",
		" WHERE Timestamp >= 5 AND Timestamp <= 100",
		" WHERE Timestamp = 7",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		branches := 1 + r.Intn(8)
		var sb strings.Builder
		for b := 0; b < branches; b++ {
			if b > 0 {
				sb.WriteString(" UNION ")
			}
			sb.WriteString("SELECT ")
			nItems := 1 + r.Intn(3)
			for i := 0; i < nItems; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(items[r.Intn(len(items))])
			}
			fmt.Fprintf(&sb, " FROM table_%d%s", r.Intn(20), wheres[r.Intn(len(wheres))])
		}
		q, err := Parse(sb.String())
		if err != nil {
			t.Logf("query %q: %v", sb.String(), err)
			return false
		}
		return len(q.Selects) == branches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregates computed by the engine agree with a direct fold over
// the executor's entries.
func TestAggregatesMatchDirectFoldQuick(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		ex := &fakeExec{id: "t"}
		for i, v := range raw {
			ex.entries = append(ex.entries, telemetry.NewFact("t", int64(i), float64(v)))
		}
		eng := NewEngine(mapResolver{"t": ex})
		res, err := eng.Query("SELECT COUNT(*), SUM(metric), MIN(metric), MAX(metric) FROM t WHERE Timestamp >= 0")
		if err != nil {
			return false
		}
		if len(res.Rows) != 1 {
			return false
		}
		row := res.Rows[0]
		var sum float64
		min, max := float64(raw[0]), float64(raw[0])
		for _, v := range raw {
			fv := float64(v)
			sum += fv
			if fv < min {
				min = fv
			}
			if fv > max {
				max = fv
			}
		}
		return row[0].Int == int64(len(raw)) && row[1].F == sum && row[2].F == min && row[3].F == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
