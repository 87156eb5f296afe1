package archive

import (
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Tests of the segment lifecycle: a segment's file and sidecar appear with
// its first block, so a log that receives nothing writes nothing.

// dirNames lists dir's entries by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestOpenCloseLeavesNoFile: a log opened and closed three times without an
// append leaves its directory empty. (The parent created a segment at every
// Open and sealed it at Close: three 0-byte .blk and three 42-byte .idx.)
func TestOpenCloseLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("three empty Open/Close cycles left %v", names)
	}
}

// TestReadOpenBlockBeforeFile: Range and Replay return the open block's
// tuples while the active segment has no file, on a fresh log and on one
// reopened over sealed data.
func TestReadOpenBlockBeforeFile(t *testing.T) {
	dir := t.TempDir()
	check := func(l *Log, want []telemetry.Info, files int) {
		t.Helper()
		if names := dirNames(t, dir); len(names) != files {
			t.Fatalf("directory holds %v, want %d files", names, files)
		}
		if got := rangeAll(t, l, math.MinInt64, math.MaxInt64); !slices.Equal(got, want) {
			t.Fatalf("Range = %v, want %v", got, want)
		}
		if got := rangeAll(t, l, want[len(want)-1].Timestamp, math.MaxInt64); !slices.Equal(got, want[len(want)-1:]) {
			t.Fatalf("Range of the last tuple = %v, want %v", got, want[len(want)-1:])
		}
		if got := replayAll(t, l); !slices.Equal(got, want) {
			t.Fatalf("Replay = %v, want %v", got, want)
		}
	}

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []telemetry.Info
	for ts := int64(1); ts <= 3; ts++ {
		in := telemetry.NewFact("m", ts, float64(ts))
		if err := l.Append(in); err != nil {
			t.Fatal(err)
		}
		want = append(want, in)
	}
	check(l, want, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for ts := int64(4); ts <= 5; ts++ {
		in := telemetry.NewFact("m", ts, float64(ts))
		if err := l.Append(in); err != nil {
			t.Fatal(err)
		}
		want = append(want, in)
	}
	check(l, want, 2) // segment 0 and its sidecar; segment 1 is still in memory
}

// TestTwoWritersOneDirectory: two logs opened on one directory before either
// writes pick the same segment index. Each block write lands in a segment of
// its own writer — the second to create moves to the next free index — so a
// reopen replays every tuple of both, none lost or overwritten.
func TestTwoWritersOneDirectory(t *testing.T) {
	dir := t.TempDir()
	recSize := int64(len(mustMarshal(t, telemetry.NewFact("a", 0, 0))))
	opts := Options{SegmentBytes: 4 * recSize} // rotations make the writers collide again
	a, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	writers := []struct {
		l      *Log
		metric telemetry.MetricID
	}{{a, "a"}, {b, "b"}}
	const n = 20
	for ts := int64(0); ts < n; ts++ {
		for _, w := range writers {
			if err := w.l.Append(telemetry.NewFact(w.metric, ts, float64(ts))); err != nil {
				t.Fatal(err)
			}
			if err := w.l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range writers {
		if err := w.l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	re, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := counters(re)("index_rebuilds"); n != 0 {
		t.Fatalf("reopen rebuilt %d sidecars: a writer overwrote the other's", n)
	}
	got := map[telemetry.MetricID][]int64{}
	for _, in := range replayAll(t, re) {
		got[in.Metric] = append(got[in.Metric], in.Timestamp)
	}
	for _, w := range writers {
		m := w.metric
		if len(got[m]) != n {
			t.Fatalf("writer %s: replayed %v, want ts 0..%d", m, got[m], n-1)
		}
		for i, ts := range got[m] {
			if ts != int64(i) {
				t.Fatalf("writer %s: replayed %v, want ts 0..%d in order", m, got[m], n-1)
			}
		}
	}
}

// TestTierGaugesMatchDirectory: the per-tier byte gauges, which Instrument
// and Compact take from the indexes instead of the directory, equal what the
// directory holds, before and after a compaction and across a reopen.
func TestTierGaugesMatchDirectory(t *testing.T) {
	dir := t.TempDir()
	recSize := int64(len(mustMarshal(t, telemetry.NewFact("m", 0, 0))))
	opts := Options{SegmentBytes: 64 * recSize}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.Instrument(reg, "t")
	check := func(step string) {
		t.Helper()
		tiers, err := dirStats(dir)
		if err != nil {
			t.Fatal(err)
		}
		for tier := 0; tier < numTiers; tier++ {
			g := reg.Gauge(obs.Name("archive_rollup_tier_bytes", "log", "t", "tier", TierNames[tier])).Value()
			if int64(g) != tiers[tier].Bytes {
				t.Fatalf("%s: tier %s gauge reads %v bytes, directory holds %d", step, TierNames[tier], g, tiers[tier].Bytes)
			}
		}
	}
	check("fresh")
	step := int64(time.Second)
	for i := int64(0); i < 1000; i++ {
		if err := l.Append(telemetry.NewFact("m", i*step, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// The second pass rolls the first one's 10s file into the 1m tier.
	for _, now := range []int64{1000 * step, 1500 * step} {
		if _, err := l.Compact(now, Retention{Raw: 200 * time.Second, Rollup10s: 600 * time.Second}); err != nil {
			t.Fatal(err)
		}
		check("compacted")
	}
	if tiers, _ := dirStats(dir); tiers[TierRaw].Bytes == 0 || tiers[Tier10s].Bytes == 0 || tiers[Tier1m].Bytes == 0 {
		t.Fatalf("compaction left a rollup tier empty: %+v", tiers)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Instrument(reg, "t")
	check("reopened")
}
