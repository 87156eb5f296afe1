package archive

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/block"
)

func replayAll(t *testing.T, l *Log) []telemetry.Info {
	t.Helper()
	var out []telemetry.Info
	if err := l.Replay(func(in telemetry.Info) error { out = append(out, in); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameInfos(a, b []telemetry.Info) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameInfo(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRangeEqualsReplayProperty is the ISSUE 7 property test: after
// compaction and rollups, Range over any window returns exactly what a full
// Replay filtered to that window returns — the indexed/seek/block path never
// loses or invents a tuple.
func TestRangeEqualsReplayProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		metrics := []telemetry.MetricID{"node0.cap", "node1.cap"}
		ts := int64(0)
		for i := 0; i < 800; i++ {
			ts += rng.Int63n(3 * int64(time.Second))
			in := telemetry.NewFact(metrics[rng.Intn(len(metrics))], ts, rng.Float64()*100)
			if err := l.Append(in); err != nil {
				t.Fatal(err)
			}
		}
		// Roll aggressively: anything older than 1/3 of the span becomes a
		// 10s rollup, older than 2/3 a 1m rollup; nothing dropped.
		policy := Retention{Raw: time.Duration(ts / 3), Rollup10s: time.Duration(2 * ts / 3)}
		if _, err := l.Compact(ts, policy); err != nil {
			t.Fatal(err)
		}
		full := replayAll(t, l)
		for trial := 0; trial < 40; trial++ {
			from := rng.Int63n(ts)
			to := from + rng.Int63n(ts-from+1)
			want := make([]telemetry.Info, 0)
			for _, in := range full {
				if in.Timestamp >= from && in.Timestamp <= to {
					want = append(want, in)
				}
			}
			got := rangeAll(t, l, from, to)
			if !sameInfos(got, want) {
				t.Fatalf("seed %d trial %d [%d,%d]: range %d != filtered replay %d",
					seed, trial, from, to, len(got), len(want))
			}
		}
		l.Close()
	}
}

// TestRollupSemantics pins the downsample math: bucket-start timestamps,
// mean values, Source promoted to Predicted when any input was predicted.
func TestRollupSemantics(t *testing.T) {
	b := Tier10sBucket.Nanoseconds()
	in := []telemetry.Info{
		telemetry.NewFact("m", 1, 10),
		telemetry.NewFact("m", b-1, 20),
		telemetry.NewPredictedFact("m", b+1, 30),
		telemetry.NewFact("n", 2, 5),
	}
	out := rollup(in, Tier10sBucket)
	if len(out) != 3 {
		t.Fatalf("rollup produced %d tuples: %v", len(out), out)
	}
	// Sorted by (ts, metric): (0,"m"), (0,"n"), (b,"m").
	if out[0].Metric != "m" || out[0].Timestamp != 0 || out[0].Value != 15 || out[0].Source != telemetry.Measured {
		t.Fatalf("bucket 0/m: %v", out[0])
	}
	if out[1].Metric != "n" || out[1].Value != 5 {
		t.Fatalf("bucket 0/n: %v", out[1])
	}
	if out[2].Timestamp != b || out[2].Value != 30 || out[2].Source != telemetry.Predicted {
		t.Fatalf("bucket b/m: %v", out[2])
	}
}

// TestRetentionTiersAndDrop drives a log through the full lifecycle on a
// virtual timeline: raw → 10s rollup → 1m rollup → dropped.
func TestRetentionTiersAndDrop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	count := counters(l)
	policy := Retention{Raw: time.Minute, Rollup10s: 10 * time.Minute, Rollup1m: time.Hour}

	// One sample per second for 2 minutes starting at t0, then one fresh
	// sample that forces a rotation so every old record is in a sealed
	// segment (the active segment is never compacted, whatever its age).
	t0 := int64(1_000_000 * int64(time.Second))
	for i := int64(0); i < 120; i++ {
		if err := l.Append(telemetry.NewFact("m", t0+i*int64(time.Second), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	end := t0 + 120*int64(time.Second)
	if err := l.Append(telemetry.NewFact("m", end+int64(time.Hour), 0)); err != nil {
		t.Fatal(err)
	}

	// Pass at end+1m: everything is older than Raw, so the sealed segments
	// roll into 10s buckets.
	st, err := l.Compact(end+int64(time.Minute), policy)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rolled10s == 0 {
		t.Fatalf("no 10s rollups: %+v", st)
	}
	tiers, err := dirStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tiers[Tier10s].Files == 0 || tiers[Tier10s].Records == 0 {
		t.Fatalf("10s tier empty: %+v", tiers)
	}
	// 120 seconds of 1s samples = 12 ten-second buckets, plus the one fresh
	// active-segment sample.
	got := replayAll(t, l)
	if len(got) != 13 {
		t.Fatalf("replay after 10s rollup: %d tuples", len(got))
	}

	// Pass at end+11m: the 10s files are now older than Rollup10s.
	if st, err = l.Compact(end+11*int64(time.Minute), policy); err != nil {
		t.Fatal(err)
	}
	if st.Rolled1m == 0 {
		t.Fatalf("no 1m rollups: %+v", st)
	}
	got = replayAll(t, l)
	// t0 is not minute-aligned, so 120s of samples straddle three 1m
	// buckets; plus the fresh sample.
	if len(got) != 4 {
		t.Fatalf("replay after 1m rollup: %d tuples", len(got))
	}

	// Pass past the final horizon: the 1m files are dropped; only the fresh
	// active-segment sample remains.
	if st, err = l.Compact(end+3*int64(time.Hour), policy); err != nil {
		t.Fatal(err)
	}
	if st.DroppedFiles == 0 {
		t.Fatalf("nothing dropped: %+v", st)
	}
	if got = replayAll(t, l); len(got) != 1 {
		t.Fatalf("replay after drop: %d tuples", len(got))
	}
	if count("retention_dropped_files") == 0 {
		t.Fatal("dropped-files counter never moved")
	}
}

// TestCompactorVirtualClock proves the background compactor is deterministic
// on a virtual clock: no pass before the interval elapses, one after.
func TestCompactorVirtualClock(t *testing.T) {
	clk := sim.NewVirtual(time.Unix(1_000_000, 0))
	l := openT(t, Options{SegmentBytes: 256})
	count := counters(l)
	for ts := int64(0); ts < 50; ts++ {
		if err := l.Append(telemetry.NewFact("m", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCompactor(clk, time.Minute)
	c.Add(l, Retention{})
	c.Start()
	defer c.Stop()
	<-clk.BlockUntil(1) // the loop's timer is armed
	if runs := count("compaction_runs"); runs != 0 {
		t.Fatalf("ran %d times before the clock moved", runs)
	}
	clk.Advance(time.Minute)
	<-clk.BlockUntil(1) // the timer re-arms only after the pass
	if runs := count("compaction_runs"); runs != 1 {
		t.Fatalf("ran %d times after one interval, want 1", runs)
	}
}

// TestCompactJournalRecovery simulates a crash at the interesting instants
// of the rewrite protocol — here a roll-up of segment 0 into the 10s tier —
// and proves Open converges to a state with no duplicates and no lost
// tuples.
func TestCompactJournalRecovery(t *testing.T) {
	recSize := len(mustMarshal(t, telemetry.NewFact("m", 0, 0)))
	build := func(t *testing.T) (string, []telemetry.Info) {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
		if err != nil {
			t.Fatal(err)
		}
		for ts := int64(0); ts < 8; ts++ {
			if err := l.Append(telemetry.NewFact("m", ts, float64(ts))); err != nil {
				t.Fatal(err)
			}
		}
		want := replayAll(t, l)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, want
	}

	t.Run("crash before rename", func(t *testing.T) {
		dir, want := build(t)
		// Journal an intent whose destination never got renamed: a tmp file
		// lingers, sources are intact.
		src := segRef{tier: TierRaw, index: 0}
		dst := segRef{tier: Tier10s, index: 0}
		if err := os.WriteFile(filepath.Join(dir, dst.fileName()+".tmp"), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := saveJournal(dir, &inflightOp{dst: dst, srcs: []segRef{src}}); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if !sameInfos(want, replayAll(t, l)) {
			t.Fatal("tuples lost rolling back an unrenamed rewrite")
		}
		if _, err := os.Stat(filepath.Join(dir, dst.fileName()+".tmp")); !os.IsNotExist(err) {
			t.Fatal("tmp file not swept")
		}
		if loadJournal(dir) != nil {
			t.Fatal("journal not cleared")
		}
	})

	t.Run("crash after rename before source delete", func(t *testing.T) {
		dir, want := build(t)
		// Perform the rewrite by hand but "crash" before deleting the source.
		src := segRef{tier: TierRaw, index: 0}
		dst := segRef{tier: Tier10s, index: 0}
		var infos []telemetry.Info
		if _, _, err := replayFile(filepath.Join(dir, src.fileName()), false, func(in telemetry.Info) error {
			infos = append(infos, in)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		blob, _ := encodeBlocks(0, infos)
		if err := os.WriteFile(filepath.Join(dir, dst.fileName()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := saveJournal(dir, &inflightOp{dst: dst, srcs: []segRef{src}}); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if got := replayAll(t, l); !sameInfos(want, got) {
			t.Fatalf("after roll-forward: %d tuples, want %d (duplicates or loss)", len(got), len(want))
		}
		if _, err := os.Stat(filepath.Join(dir, src.fileName())); !os.IsNotExist(err) {
			t.Fatal("source segment not removed by roll-forward")
		}
		if loadJournal(dir) != nil {
			t.Fatal("journal not cleared")
		}
	})

	t.Run("lost journal with duplicate files", func(t *testing.T) {
		dir, want := build(t)
		// A crash after the output was written but before the journal was:
		// a whole copy of the source's tuples lies in the tmp file, and no
		// journal names it. It must be swept, never read.
		src := segRef{tier: TierRaw, index: 0}
		dst := segRef{tier: Tier10s, index: 0}
		var infos []telemetry.Info
		if _, _, err := replayFile(filepath.Join(dir, src.fileName()), false, func(in telemetry.Info) error {
			infos = append(infos, in)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		blob, _ := encodeBlocks(0, infos)
		if err := os.WriteFile(filepath.Join(dir, dst.fileName()+".tmp"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if got := replayAll(t, l); !sameInfos(want, got) {
			t.Fatalf("duplicate tmp copy read: %d tuples, want %d", len(got), len(want))
		}
	})
}

// TestCompactedTruncationEveryOffset mirrors truncate_test.go for block
// files: cut a compressed segment at every byte boundary; Open must succeed,
// replay exactly the records of the blocks that survived whole, and rebuild
// the sidecar to match.
func TestCompactedTruncationEveryOffset(t *testing.T) {
	infos := syntheticCorpus(2*block.MaxRecords + 57)
	blob, si := encodeBlocks(0, infos)
	// Block boundaries: [off[i], off[i+1]) frames; a cut keeps the records
	// of every block that fits entirely below it.
	bounds := make([]int64, 0, len(si.offs)+1)
	for _, e := range si.offs {
		bounds = append(bounds, e.off)
	}
	bounds = append(bounds, int64(len(blob)))

	for cut := 0; cut <= len(blob); cut++ {
		dir := t.TempDir()
		ref := segRef{tier: TierRaw, index: 0}
		if err := os.WriteFile(filepath.Join(dir, ref.fileName()), blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		wantN := 0
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i+1] <= int64(cut) {
				wantN = (i + 1) * block.MaxRecords
			}
		}
		if wantN > len(infos) {
			wantN = len(infos)
		}
		got := replayAll(t, l)
		if len(got) != wantN {
			t.Fatalf("cut=%d: replayed %d, want %d", cut, len(got), wantN)
		}
		for i := range got {
			if !sameInfo(got[i], infos[i]) {
				t.Fatalf("cut=%d record %d differs", cut, i)
			}
		}
		if !sameInfos(got, rangeAll(t, l, 0, 1<<62)) {
			t.Fatalf("cut=%d: Range disagrees with Replay", cut)
		}
		l.Close()
	}
}

// TestParseRetention covers the flag syntax.
func TestParseRetention(t *testing.T) {
	r, err := ParseRetention("raw=15m,10s=2h,1m=24h")
	if err != nil {
		t.Fatal(err)
	}
	want := Retention{Raw: 15 * time.Minute, Rollup10s: 2 * time.Hour, Rollup1m: 24 * time.Hour}
	if r != want {
		t.Fatalf("got %+v", r)
	}
	if r, err = ParseRetention(""); err != nil || !r.IsZero() {
		t.Fatalf("empty: %v %v", r, err)
	}
	if _, err = ParseRetention("raw=15m,5s=1h"); err == nil || !strings.Contains(err.Error(), "unknown tier") {
		t.Fatalf("bad tier: %v", err)
	}
	if _, err = ParseRetention("raw"); err == nil {
		t.Fatal("missing value accepted")
	}
	if _, err = ParseRetention("raw=-1m"); err == nil {
		t.Fatal("negative duration accepted")
	}
}

// TestListLogs: a root that is itself a log lists as that one log; a root of
// per-metric logs lists each in name order with its dirStats, and leaves out
// a foreign directory, a log that never wrote a block and a stray file.
func TestListLogs(t *testing.T) {
	write := func(dir string, n int) {
		t.Helper()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := l.Append(telemetry.NewFact("m", int64(i+1), float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	write(filepath.Join(root, "b"), 3)
	write(filepath.Join(root, "a"), 2)
	write(filepath.Join(root, "unwritten"), 0)
	if err := os.MkdirAll(filepath.Join(root, "foreign", "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{filepath.Join(root, "foreign", "notes.txt"), filepath.Join(root, "stray.blk")} {
		if err := os.WriteFile(f, []byte("not an archive"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	logs, err := ListLogs(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, l := range logs {
		names = append(names, filepath.Base(l.Dir))
		want, err := dirStats(l.Dir)
		if err != nil || l.Tiers != want {
			t.Errorf("%s: stats %+v, want dirStats %+v (%v)", l.Dir, l.Tiers, want, err)
		}
	}
	if strings.Join(names, ",") != "a,b" {
		t.Fatalf("logs under the root = %v, want [a b]", names)
	}
	if logs[0].Tiers[TierRaw].Records != 2 || logs[1].Tiers[TierRaw].Records != 3 {
		t.Fatalf("records %d, %d, want 2, 3", logs[0].Tiers[TierRaw].Records, logs[1].Tiers[TierRaw].Records)
	}

	one, err := ListLogs(filepath.Join(root, "b"))
	if err != nil || len(one) != 1 || one[0].Dir != filepath.Join(root, "b") || one[0].Tiers != logs[1].Tiers {
		t.Fatalf("a log as the root lists %+v (%v), want itself alone", one, err)
	}
	if none, err := ListLogs(filepath.Join(root, "foreign")); err != nil || len(none) != 0 {
		t.Fatalf("a foreign root lists %+v (%v), want nothing", none, err)
	}
	if _, err := ListLogs(filepath.Join(root, "missing")); err == nil {
		t.Fatal("a missing root listed without an error")
	}
}
