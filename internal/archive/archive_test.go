package archive

import (
	"errors"
	"os"
	"path/filepath"
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

func TestTornTailRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(telemetry.NewFact("a", 1, 1))
	l.Append(telemetry.NewFact("a", 2, 2))
	l.Close()

	// Truncate mid-record to simulate a crash during append.
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

func BenchmarkAppend(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
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
}
