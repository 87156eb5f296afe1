package archive

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// counters instruments l on a fresh registry and returns a reader of its
// archive_<base>_total counters: the registry is the only place they live.
func counters(l *Log) func(base string) uint64 {
	reg := obs.NewRegistry()
	l.Instrument(reg, "t")
	return func(base string) uint64 {
		return reg.Counter(obs.Name("archive_"+base+"_total", "log", "t")).Value()
	}
}

// rawSegments returns the sorted indices of l's full-resolution segment
// files, raw or compressed.
func rawSegments(t *testing.T, l *Log) []int {
	t.Helper()
	refs, err := l.scanRefs()
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, r := range refs {
		if r.tier == TierRaw {
			out = append(out, r.index)
		}
	}
	return out
}

func openT(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReplay(t *testing.T) {
	l := openT(t, Options{})
	want := []telemetry.Info{
		telemetry.NewFact("a", 1, 1.5),
		{Metric: "b", Timestamp: 2, Value: 2.5, Kind: telemetry.KindInsight, Source: telemetry.Measured},
		telemetry.NewPredictedFact("c", 3, 3.5),
	}
	for _, in := range want {
		if err := l.Append(in); err != nil {
			t.Fatal(err)
		}
	}
	if l.Appended() != 3 {
		t.Fatalf("Appended=%d", l.Appended())
	}
	var got []telemetry.Info
	if err := l.Replay(func(i telemetry.Info) error { got = append(got, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestReplayErrorPropagates(t *testing.T) {
	l := openT(t, Options{})
	l.Append(telemetry.NewFact("a", 1, 1))
	sentinel := errors.New("stop")
	if err := l.Replay(func(telemetry.Info) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err=%v", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 20; i++ {
		if err := l.Append(telemetry.NewFact("metric-name", int64(i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	segs := rawSegments(t, l)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got segments %v", segs)
	}
	count := 0
	last := int64(-1)
	if err := l.Replay(func(i telemetry.Info) error {
		if i.Timestamp != last+1 {
			t.Fatalf("order broken at %d after %d", i.Timestamp, last)
		}
		last = i.Timestamp
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("replayed %d across segments", count)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	l1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1.Append(telemetry.NewFact("a", 1, 1))
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	l2.Append(telemetry.NewFact("a", 2, 2))
	var ts []int64
	if err := l2.Replay(func(i telemetry.Info) error { ts = append(ts, i.Timestamp); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0] != 1 || ts[1] != 2 {
		t.Fatalf("ts=%v", ts)
	}
}

func TestRange(t *testing.T) {
	l := openT(t, Options{})
	for i := 0; i < 10; i++ {
		l.Append(telemetry.NewFact("a", int64(i*10), float64(i)))
	}
	var ts []int64
	if err := l.Range(25, 55, func(i telemetry.Info) error { ts = append(ts, i.Timestamp); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0] != 30 || ts[2] != 50 {
		t.Fatalf("Range ts=%v", ts)
	}
}

// TestTornTailRecord: two one-tuple blocks (a Sync between the appends),
// the second cut short as by a crash during its write.
func TestTornTailRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(telemetry.NewFact("a", 1, 1))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Append(telemetry.NewFact("a", 2, 2))
	l.Close()

	// Truncate mid-block to simulate a crash during its write.
	path := filepath.Join(dir, segmentName(0))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var ts []int64
	if err := l2.Replay(func(i telemetry.Info) error { ts = append(ts, i.Timestamp); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0] != 1 {
		t.Fatalf("after torn tail ts=%v", ts)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(telemetry.NewFact("a", 1, 1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(telemetry.NewFact("a", 1, 1))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("Sync did not flush bytes")
	}
}

// BenchmarkAppend times an append and reports what it costs on disk once
// the open block is written.
func BenchmarkAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	info := telemetry.NewFact("node1.nvme0.capacity", 1, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		info.Timestamp = int64(i)
		if err := l.Append(info); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var disk int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			disk += fi.Size()
		}
	}
	b.ReportMetric(float64(disk)/float64(b.N), "diskbytes/op")
}

// TestAppendRejectsOversizedMetric: a block stores a metric name's length
// as a u16, so a name of 64 KiB or more is refused, not truncated; the
// longest name that fits round-trips, and the log keeps working.
func TestAppendRejectsOversizedMetric(t *testing.T) {
	l := openT(t, Options{})
	if err := l.Append(telemetry.NewFact(telemetry.MetricID(strings.Repeat("x", 1<<16)), 1, 1)); err == nil {
		t.Fatal("a 64 KiB metric name was accepted")
	}
	if err := l.Append(telemetry.Info{Metric: "a", Timestamp: 1, Source: telemetry.Predicted + 1}); err == nil {
		t.Fatal("a Source past Predicted was accepted")
	}
	longest := telemetry.NewFact(telemetry.MetricID(strings.Repeat("y", 1<<16-1)), 2, 2)
	if err := l.Append(longest); err != nil {
		t.Fatalf("a %d-byte metric name was refused: %v", len(longest.Metric), err)
	}
	if err := l.Append(telemetry.NewFact("a", 3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := rangeAll(t, l, math.MinInt64, math.MaxInt64)
	if len(got) != 2 || got[0] != longest || got[1].Timestamp != 3 {
		t.Fatalf("log holds %d tuples after the refusal, want the longest name and ts=3", len(got))
	}
}

// TestOpenRejectsRawSegment: a directory holding a raw-record segment of
// the earlier on-disk format is refused with the file named, instead of its
// tuples being skipped in silence.
func TestOpenRejectsRawSegment(t *testing.T) {
	dir := t.TempDir()
	raw, err := telemetry.NewFact("a", 1, 1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "segment-00000000.log")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err == nil {
		l.Close()
		t.Fatal("Open accepted a directory with a raw-record segment")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("Open error %q does not name %s", err, path)
	}
}

// frames walks data as whole block frames, returning each block's tuple
// count; ok is false when the bytes are not whole frames end to end.
func frames(data []byte) (counts []int, ok bool) {
	for len(data) > 0 {
		infos, n, err := decodeBlock(data)
		if err != nil {
			return counts, false
		}
		counts = append(counts, len(infos))
		data = data[n:]
	}
	return counts, true
}

// TestActiveSegmentIsBlocks: the active segment is written as block frames
// as it fills — after two and a half blocks' worth of appends its file is
// two whole blockRecords-tuple frames, and the rest waits in the open block.
func TestActiveSegmentIsBlocks(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for ts := int64(1); ts <= 2*blockRecords+blockRecords/2; ts++ {
		if err := l.Append(telemetry.NewFact("node01.nvme0.capacity_total", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	counts, ok := frames(data)
	if !ok || len(counts) != 2 || counts[0] != blockRecords || counts[1] != blockRecords {
		t.Fatalf("active segment of %d bytes parses as frames %v (whole: %v), want two of %d tuples", len(data), counts, ok, blockRecords)
	}
}

// copyDir copies the regular files of src into a fresh directory, as a
// crash would leave them.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestUnsyncedOpenBlockLossWindow pins the crash contract: a process that
// dies without Sync or Close loses the open block and nothing else, and
// after Sync it loses nothing.
func TestUnsyncedOpenBlockLossWindow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 2*blockRecords + blockRecords/2
	for ts := int64(1); ts <= n; ts++ {
		if err := l.Append(telemetry.NewFact("m", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	reopened := func() []telemetry.Info {
		re, err := Open(copyDir(t, dir), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		return rangeAll(t, re, math.MinInt64, math.MaxInt64)
	}
	if got := reopened(); len(got) != 2*blockRecords || got[len(got)-1].Timestamp != 2*blockRecords {
		t.Fatalf("crash copy reopened to %d tuples, want the %d of the sealed blocks", len(got), 2*blockRecords)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := reopened(); len(got) != n {
		t.Fatalf("crash copy after Sync reopened to %d tuples, want %d", len(got), n)
	}
}
