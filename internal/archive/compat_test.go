package archive

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestReadsVersion1Log: testdata/v1-log is a log an earlier build wrote in
// version 1 block frames — 600 tuples of two metrics, half a second apart,
// in 4 KiB segments whose first three it rolled into a 10 s roll-up — with
// its sidecars, and v1-log.txt the records that build's Range read back from
// it. A copy of it opens, ranges to the same records in the same order, and
// takes appends and a compaction in version 2 frames beside them.
func TestReadsVersion1Log(t *testing.T) {
	dir := t.TempDir()
	src := "testdata/v1-log"
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(e.Name(), ".blk") && b[8] != 1 {
			t.Fatalf("%s starts with a version %d frame, want 1", e.Name(), b[8])
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/v1-log.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	read := func() []string {
		var got []string
		if err := l.Range(math.MinInt64, math.MaxInt64, func(in telemetry.Info) error {
			got = append(got, fmt.Sprintf("%s %d %d %d %016x", in.Metric, in.Timestamp, in.Kind, in.Source, math.Float64bits(in.Value)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := read()
	if len(got) != len(lines) {
		t.Fatalf("Range read %d records, want %d", len(got), len(lines))
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Fatalf("record %d reads %q, want %q", i, got[i], lines[i])
		}
	}
	if l.idxRebuilds != 0 {
		t.Errorf("%d sidecars rebuilt, want the version 1 log's own", l.idxRebuilds)
	}

	// New tuples go into version 2 frames after the old ones; a compaction
	// rolls version 1 segments into a version 2 roll-up.
	last := lines[len(lines)-1]
	var ts int64
	fmt.Sscan(strings.Fields(last)[1], &ts)
	next := telemetry.NewPredictedFact("node01.nvme0.capacity", ts+500_000_000, 1)
	if err := l.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(ts+int64(time.Minute), Retention{Raw: 90 * time.Second}); err != nil {
		t.Fatal(err)
	}
	got = read()
	if n := len(got); n >= len(lines) || got[n-1] != fmt.Sprintf("node01.nvme0.capacity %d 0 1 %016x", next.Timestamp, math.Float64bits(1)) {
		t.Fatalf("after an append and a compaction: %d records ending %q", n, got[n-1])
	}
	versions := map[string]byte{}
	entries, _ = os.ReadDir(dir)
	for _, e := range entries {
		if b, _ := os.ReadFile(filepath.Join(dir, e.Name())); strings.HasSuffix(e.Name(), ".blk") {
			versions[e.Name()[:7]] = max(versions[e.Name()[:7]], b[8])
		}
	}
	if versions["segment"] != 2 || versions["rollup1"] != 2 {
		t.Fatalf("newest frame versions by file kind: %v, want a version 2 segment and roll-up", versions)
	}
}
