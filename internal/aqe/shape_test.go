package aqe

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// shapeFixture holds tables whose names exercise the identifier rule (digits,
// dots and dashes belong to the name, not to a literal).
func shapeFixture() mapResolver {
	res := mapResolver{}
	for _, name := range []string{"t", "f003", "node-3.nvme0", "a_1.b-2"} {
		ex := &fakeExec{id: telemetry.MetricID(name)}
		for ts := int64(-20); ts <= 200; ts++ {
			ex.entries = append(ex.entries, telemetry.NewFact(ex.id, ts, float64(ts%17)))
		}
		res[name] = ex
	}
	return res
}

// shapeCorpus draws n query texts from a fixed family of shapes with seeded
// literals, good and bad alike.
func shapeCorpus(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"t", "f003", "node-3.nvme0", "a_1.b-2"}
	lit := func() int64 { return rng.Int63n(240) - 30 }
	shapes := []func() string{
		func() string {
			return fmt.Sprintf("SELECT COUNT(*), AVG(metric), MAX(metric) FROM %s WHERE Timestamp BETWEEN %d AND %d", tables[rng.Intn(4)], lit(), lit())
		},
		func() string { return fmt.Sprintf("SELECT Timestamp, metric FROM t WHERE Timestamp > %d", lit()) },
		func() string { return fmt.Sprintf("SELECT Timestamp FROM f003 WHERE Timestamp >= %d", lit()) },
		func() string { return fmt.Sprintf("SELECT Timestamp FROM t WHERE Timestamp < %d", lit()) },
		func() string { return fmt.Sprintf("SELECT MIN(metric) FROM t WHERE Timestamp <= %d", lit()) },
		func() string { return fmt.Sprintf("SELECT metric FROM node-3.nvme0 WHERE Timestamp = %d", lit()) },
		func() string {
			return fmt.Sprintf("SELECT Timestamp FROM t WHERE Timestamp >= %d AND Timestamp < %d", lit(), lit())
		},
		// The second condition overrides the first.
		func() string {
			return fmt.Sprintf("SELECT Timestamp FROM t WHERE Timestamp >= %d AND Timestamp > %d", lit(), lit())
		},
		func() string {
			return fmt.Sprintf("SELECT Timestamp FROM t WHERE Timestamp = %d AND Timestamp <= %d", lit(), lit())
		},
		func() string {
			return fmt.Sprintf("SELECT Timestamp, metric FROM a_1.b-2 WHERE Timestamp>%d ORDER BY Timestamp DESC LIMIT %d", lit(), rng.Int63n(6))
		},
		func() string { return fmt.Sprintf("SELECT metric FROM t LIMIT %d", rng.Int63n(4)) },
		func() string {
			return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE Timestamp >= %d UNION SELECT COUNT(*) FROM f003 WHERE Timestamp < %d", lit(), lit())
		},
		func() string { return "SELECT MAX(Timestamp), metric FROM " + tables[rng.Intn(4)] },
		func() string {
			return "SELECT MAX(Timestamp), metric FROM t UNION SELECT MAX(Timestamp), metric FROM f003"
		},
		func() string { return fmt.Sprintf("SELECT metric FROM t WHERE Timestamp > %d.5", lit()) },
		func() string {
			return fmt.Sprintf("SELECT metric FROM t WHERE Timestamp > 9223372036854775808%d", rng.Intn(10))
		},
		func() string { return fmt.Sprintf("SELECT metric FROM t WHERE Timestamp BETWEEN %d %d", lit(), lit()) },
		func() string {
			return fmt.Sprintf("SELECT metric FROM t WHERE Timestamp > ? AND Timestamp < %d", lit())
		},
		func() string { return fmt.Sprintf("SELECT AVG(Timestamp) FROM t WHERE Timestamp > %d", lit()) },
		func() string { return fmt.Sprintf("SELECT metric FROM nowhere WHERE Timestamp > %d", lit()) },
		func() string { return fmt.Sprintf("SELECT metric FROM t WHERE Timestamp > %d trailing", lit()) },
		func() string { return fmt.Sprintf("SELECT metric FROM café WHERE Timestamp > %d", lit()) },
	}
	out := make([]string, n)
	for i := range out {
		out[i] = shapes[rng.Intn(len(shapes))]()
	}
	return out
}

// TestShapeCacheMatchesUncached is the differential oracle of the shape
// cache: an engine that binds cached plans and one that parses every text
// answer a seeded corpus identically — rows, error text and error position.
func TestShapeCacheMatchesUncached(t *testing.T) {
	res := shapeFixture()
	cached, cold := NewEngine(res), uncached(res)
	planCacheStats := cacheStats(cached)
	corpus := shapeCorpus(1, 6000)
	for _, src := range corpus {
		got, gerr := cached.Query(src)
		want, werr := cold.Query(src)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%q: cached err %v, uncached err %v", src, gerr, werr)
		}
		var gse, wse *SyntaxError
		if errors.As(gerr, &gse) != errors.As(werr, &wse) || (gse != nil && *gse != *wse) {
			t.Fatalf("%q: cached %#v, uncached %#v", src, gse, wse)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\ncached   %+v\nuncached %+v", src, got, want)
		}
	}
	// Only texts that end in an error (never cached) and each shape's first
	// appearance miss.
	hits, misses, _ := planCacheStats()
	valid := 0
	for _, src := range corpus {
		if _, err := cold.Prepare(src); err == nil {
			valid++
		}
	}
	if ratio := float64(hits) / float64(valid); ratio < 0.99 {
		t.Fatalf("hit ratio over %d valid texts = %.4f (hits %d, misses %d), want >= 0.99", valid, ratio, hits, misses)
	}
}

// TestLimitErrorNamesTheLiteral: LIMIT 0 is reported at the number, parsed
// cold or bound onto a cached shape.
func TestLimitErrorNamesTheLiteral(t *testing.T) {
	e := NewEngine(shapeFixture())
	if _, err := e.Prepare("SELECT metric FROM t LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"SELECT metric FROM t LIMIT 0", "SELECT metric FROM t LIMIT -7", "SELECT metric FROM t LIMIT 0 "} {
		for _, eng := range []*Engine{e, uncached(shapeFixture())} {
			_, err := eng.Prepare(src)
			var se *SyntaxError
			if !errors.As(err, &se) || se.Msg != "LIMIT must be positive" || se.Pos != strings.Index(src, "LIMIT")+6 {
				t.Fatalf("%q: %#v", src, err)
			}
			if !strings.HasPrefix(err.Error(), "aqe:") {
				t.Fatalf("%q: %v lacks the front end's prefix", src, err)
			}
		}
	}
}

// TestShapeOf pins the normaliser's token rule on the cases that matter.
func TestShapeOf(t *testing.T) {
	for _, c := range []struct {
		src, key string
		args     []int64
	}{
		{"SELECT metric FROM f003 WHERE Timestamp>=-5", "SELECT metric FROM f003 WHERE Timestamp>=?", []int64{-5}},
		{"x BETWEEN 10 AND 007", "x BETWEEN ? AND ?", []int64{10, 7}},
		{"node-3.nvme0 5-3", "node-3.nvme0 ??", []int64{5, -3}},
		{"_a9 - 9", "_a9 - ?", []int64{9}},
		{"LIMIT 1.5", "LIMIT 1.5", nil},
		{"LIMIT 9223372036854775808", "LIMIT 9223372036854775808", nil},
		{"LIMIT ? 4", "LIMIT ? 4", nil},
		{"caf\xc3\xa9 4", "caf\xc3\xa9 4", nil},
	} {
		key, args := shapeOf(nil, nil, c.src)
		if string(key) != c.key || !reflect.DeepEqual(append([]int64(nil), args...), c.args) {
			t.Errorf("shapeOf(%q) = %q %v, want %q %v", c.src, key, args, c.key, c.args)
		}
	}
}

// substitute puts args back into a shape.
func substitute(shape []byte, args []int64) string {
	var b strings.Builder
	for _, c := range shape {
		if c == '?' && len(args) > 0 {
			b.WriteString(strconv.FormatInt(args[0], 10))
			args = args[1:]
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// FuzzShapeOf: for any text that parses and whose literals the normaliser
// lifts, putting the arguments back into the shape parses to the same tree —
// the shape and its arguments carry everything the parser reads. (A text that
// does not parse is never cached, so its shape binds nothing.)
func FuzzShapeOf(f *testing.F) {
	for _, src := range shapeCorpus(2, 64) {
		f.Add(src)
	}
	f.Add("SELECT metric FROM t WHERE Timestamp BETWEEN -0 AND 0009 LIMIT 00")
	f.Add("1-2-3 a-1 -b 4.")
	f.Fuzz(func(t *testing.T, src string) {
		key, args := shapeOf(nil, nil, src)
		if len(args) == 0 {
			if string(key) != src {
				t.Fatalf("shapeOf(%q) lifted nothing but changed the text to %q", src, key)
			}
			return
		}
		want, err := Parse(src)
		if err != nil {
			return
		}
		back := substitute(key, args)
		got, err := Parse(back)
		if err != nil {
			t.Fatalf("%q parses, its normal form %q does not: %v", src, back, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q and its normal form %q parse differently:\n%+v\n%+v", src, back, want, got)
		}
	})
}

// TestPreparedQueryAllocs measures what a cache hit costs in allocations: a
// shape with no literals is its own plan; a window-shaped text with literals
// no earlier text carried copies one plan header and one branch slice, and
// its execution adds the result, its two slices, the row and the scan's
// accumulator. (The parent missed the cache on every such text: ~100
// allocations for the lex, parse and compile.)
func TestPreparedQueryAllocs(t *testing.T) {
	e := NewEngine(scanFixture(300))
	planCacheStats := cacheStats(e)
	latest := "SELECT MAX(Timestamp), metric FROM t"
	union := latest
	for i := 0; i < 15; i++ {
		union += " UNION " + latest
	}
	for _, src := range []string{latest, union} {
		if _, err := e.Prepare(src); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { e.Prepare(src) }); n != 0 {
			t.Errorf("Prepare hit on %.40q… allocates %v, want 0", src, n)
		}
	}
	texts := make([]string, 256)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT COUNT(*), AVG(metric), MAX(metric) FROM t WHERE Timestamp BETWEEN %d AND %d", 100+i, 150+i)
	}
	if _, err := e.Query(texts[0]); err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _ := planCacheStats()
	i := 0
	prep := testing.AllocsPerRun(200, func() { e.Prepare(texts[i%len(texts)]); i++ })
	query := testing.AllocsPerRun(200, func() { e.Query(texts[i%len(texts)]); i++ })
	unionQ := testing.AllocsPerRun(200, func() { e.Query(union) })
	t.Logf("allocs: window Prepare %v, window Query %v, 16-branch latest union Query %v", prep, query, unionQ)
	if _, misses, _ := planCacheStats(); misses != missesBefore {
		t.Fatalf("fresh literals missed the cache: misses %d -> %d", missesBefore, misses)
	}
	if prep != 2 {
		t.Errorf("window-shaped Prepare hit allocates %v, want 2 (plan header + branch copy)", prep)
	}
	if query != 7 {
		t.Errorf("window-shaped Query allocates %v, want 7", query)
	}
	if unionQ != 19 {
		t.Errorf("16-branch latest union allocates %v, want 19 (16 rows + result, columns, row slice; no fan-out)", unionQ)
	}
}
