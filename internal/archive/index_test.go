package archive

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// fillSegments appends n records with 1-second timestamps into a log whose
// tiny segment cap forces many rotations, returning the records appended.
func fillSegments(t *testing.T, l *Log, n int) []telemetry.Info {
	t.Helper()
	out := make([]telemetry.Info, 0, n)
	for i := 0; i < n; i++ {
		in := telemetry.NewFact("idx.metric", int64(i), float64(i))
		if err := l.Append(in); err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

// rangeAll collects Range output.
func rangeAll(t *testing.T, l *Log, from, to int64) []telemetry.Info {
	t.Helper()
	var got []telemetry.Info
	if err := l.Range(from, to, func(in telemetry.Info) error { got = append(got, in); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

// replayFiltered is the linear baseline: Replay everything, filter by window.
func replayFiltered(t *testing.T, l *Log, from, to int64) []telemetry.Info {
	t.Helper()
	var got []telemetry.Info
	if err := l.Replay(func(in telemetry.Info) error {
		if in.Timestamp >= from && in.Timestamp <= to {
			got = append(got, in)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSidecarWrittenOnRotateAndClose verifies every sealed segment gets an
// .idx sidecar, including the active one at Close.
func TestSidecarWrittenOnRotateAndClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	count := counters(l)
	fillSegments(t, l, 64)
	if count("rotations") == 0 {
		t.Fatal("expected rotations with 256-byte segments")
	}
	// Rotated-out segments have sidecars before Close.
	for i := 0; i < int(count("rotations")); i++ {
		if _, err := os.Stat(filepath.Join(dir, indexName(i))); err != nil {
			t.Fatalf("sealed segment %d missing sidecar: %v", i, err)
		}
	}
	active := l.curIndex
	if _, err := os.Stat(filepath.Join(dir, indexName(active))); err == nil {
		t.Fatal("active segment should not have a sidecar yet")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, indexName(active))); err != nil {
		t.Fatalf("Close did not seal active segment's sidecar: %v", err)
	}
	// Reopening a cleanly-closed log rebuilds nothing.
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := counters(l2)("index_rebuilds"); n != 0 {
		t.Fatalf("clean reopen rebuilt %d sidecars, want 0", n)
	}
}

// TestOpenRebuildsMissingAndCorruptSidecar is the crash-safety regression
// test: deleted and corrupted sidecars are rebuilt on Open, and reads after
// the rebuild see exactly the right records.
func TestOpenRebuildsMissingAndCorruptSidecar(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := fillSegments(t, l, 64)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that lost one sidecar and garbled another.
	if err := os.Remove(filepath.Join(dir, indexName(0))); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, indexName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, indexName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := counters(l2)("index_rebuilds"); n != 2 {
		t.Fatalf("IndexRebuilds=%d, want 2 (one missing, one corrupt)", n)
	}
	got := rangeAll(t, l2, 10, 50)
	if len(got) != 41 {
		t.Fatalf("Range after rebuild returned %d records, want 41", len(got))
	}
	for i, in := range got {
		if in != want[10+i] {
			t.Fatalf("record %d: %v want %v", i, in, want[10+i])
		}
	}
}

// TestStaleSidecarRebuilt covers a crash after segment bytes landed but
// before the sidecar was refreshed: the size mismatch forces a rebuild.
func TestStaleSidecarRebuilt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, l, 8)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append an extra block directly to the sealed segment so its size no
	// longer matches what the sidecar recorded.
	extra := encodeBlock(nil, TierRaw, []telemetry.Info{telemetry.NewFact("idx.metric", 100, 1)})
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(extra); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := counters(l2)("index_rebuilds"); n != 1 {
		t.Fatalf("IndexRebuilds=%d, want 1 (stale)", n)
	}
	got := rangeAll(t, l2, 100, 100)
	if len(got) != 1 || got[0].Timestamp != 100 {
		t.Fatalf("rebuilt index missed the out-of-band record: %v", got)
	}
}

// TestRangeMatchesReplayFilter is the equivalence property: for random
// windows, indexed Range returns exactly what a full Replay plus filter
// returns — across many segments, a wrapped-open log, and an active tail.
func TestRangeMatchesReplayFilter(t *testing.T) {
	l := openT(t, Options{SegmentBytes: 512})
	fillSegments(t, l, 200) // many sealed segments + active tail
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		from := int64(r.Intn(220)) - 10
		to := from + int64(r.Intn(120))
		got := rangeAll(t, l, from, to)
		want := replayFiltered(t, l, from, to)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("[%d,%d]: Range %d records, Replay-filter %d", from, to, len(got), len(want))
		}
	}
	// Empty and inverted windows.
	if got := rangeAll(t, l, 500, 600); got != nil {
		t.Fatalf("out-of-range window returned %d records", len(got))
	}
	if got := rangeAll(t, l, 50, 40); got != nil {
		t.Fatalf("inverted window returned %d records", len(got))
	}
}

// TestRangeWithMidSegmentCorruption verifies the indexed read path keeps the
// resync semantics: a corrupt block inside the window is skipped and
// counted, not silently truncating the scan.
func TestRangeWithMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // 8 blocks of 4
		fillSegments(t, l, 4)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the sealed segment.
	seg := filepath.Join(dir, segmentName(0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove the sidecar so Open rebuilds it over the corrupted bytes.
	os.Remove(filepath.Join(dir, indexName(0)))

	l2, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := rangeAll(t, l2, 0, 1000)
	want := replayFiltered(t, l2, 0, 1000)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Range %d records, Replay-filter %d after corruption", len(got), len(want))
	}
	if len(got) >= 32 || len(got) == 0 {
		t.Fatalf("expected partial recovery, got %d of 32", len(got))
	}
}

// TestIndexedRangeReadsFarFewerBytes is the acceptance-criteria test: a Range
// over the last segment of a 64-segment log reads >=10x fewer bytes than a
// linear replay, asserted via the obs read-bytes counter.
func TestIndexedRangeReadsFarFewerBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	l.Instrument(reg, "bytes")
	readBytes := reg.Counter(obs.Name("archive_read_bytes_total", "log", "bytes"))
	rotations := reg.Counter(obs.Name("archive_rotations_total", "log", "bytes"))
	skipped := reg.Counter(obs.Name("archive_range_segments_skipped_total", "log", "bytes"))
	n := 0
	for rotations.Value() < 64 {
		if err := l.Append(telemetry.NewFact("idx.metric", int64(n), float64(n))); err != nil {
			t.Fatal(err)
		}
		n++
	}

	// Linear baseline: replay the world.
	count := 0
	if err := l.Replay(func(telemetry.Info) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	linear := readBytes.Value()
	if linear == 0 {
		t.Fatal("replay read no bytes")
	}

	// Indexed read of a window that lives entirely in the newest records.
	from := int64(n - 5)
	got := rangeAll(t, l, from, int64(n))
	if len(got) != 5 {
		t.Fatalf("Range returned %d records, want 5", len(got))
	}
	indexed := readBytes.Value() - linear
	if indexed == 0 {
		t.Fatal("indexed range read no bytes")
	}
	if linear < 10*indexed {
		t.Fatalf("indexed range read %d bytes vs %d linear — want >=10x fewer", indexed, linear)
	}
	if skipped.Value() < 60 {
		t.Fatalf("segments skipped=%d, want most of 64 segments skipped", skipped.Value())
	}
}

// TestSegIndexRoundTrip pins the sidecar codec.
func TestSegIndexRoundTrip(t *testing.T) {
	si := &segIndex{size: 12345, records: 130, sorted: true, firstTS: 7, lastTS: 99, folded: true, blocks: 3}
	si.offs = []idxEntry{{off: 0, first: 7}, {off: 512, first: 40}, {off: 1024, first: 80}}
	si.folds = []telemetry.Summary{
		{Count: 50, Sum: 1.5, Min: -2, Max: 3, First: 7, Last: 39},
		{Count: 50, Sum: -0.25, Min: math.Inf(-1), Max: 1e300, First: 40, Last: 79},
		{Count: 30, Sum: 4, Min: 0, Max: 4, First: 80, Last: 99},
	}
	for _, f := range si.folds {
		si.total.Merge(f)
	}
	got, err := unmarshalSegIndex(si.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, si) {
		t.Fatalf("round trip: %+v != %+v", got, si)
	}
	// A roll-up's sidecar carries no folds.
	ru := &segIndex{size: 12345, records: 130, sorted: true, firstTS: 7, lastTS: 99, blocks: 3, offs: si.offs}
	ru.total = telemetry.Summary{Count: 130, First: 7, Last: 99}
	if got, err := unmarshalSegIndex(ru.marshal(nil)); err != nil || !reflect.DeepEqual(got, ru) {
		t.Fatalf("round trip without folds: %+v != %+v (%v)", got, ru, err)
	}
	// Any single-byte flip must be rejected by the CRC.
	b := si.marshal(nil)
	for i := 0; i < len(b); i += 7 {
		b[i] ^= 0x55
		if _, err := unmarshalSegIndex(b); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
		b[i] ^= 0x55
	}
	if _, err := unmarshalSegIndex(b[:10]); err == nil {
		t.Fatal("truncated sidecar accepted")
	}
}

// TestUnsortedSegmentFullScan verifies an unsorted segment (insight vertices
// may archive out of order) is scanned fully and correctly.
func TestUnsortedSegmentFullScan(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, ts := range []int64{5, 3, 9, 1, 7} {
		if err := l.Append(telemetry.NewFact("u", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	got := rangeAll(t, l, 3, 7)
	if len(got) != 3 { // 5, 3, 7 fall in window (append order preserved)
		t.Fatalf("unsorted Range returned %d records, want 3", len(got))
	}
	want := replayFiltered(t, l, 3, 7)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted Range mismatch: %v vs %v", got, want)
	}
}

// benchLog builds a many-segment archive for the indexed-read benchmarks.
func benchLog(b *testing.B, segBytes int64, minRotations uint64) (*Log, int64, func(string) uint64) {
	b.Helper()
	l, err := Open(b.TempDir(), Options{SegmentBytes: segBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	count := counters(l)
	n := int64(0)
	for count("rotations") < minRotations {
		if err := l.Append(telemetry.NewFact("bench.metric", n, float64(n))); err != nil {
			b.Fatal(err)
		}
		n++
	}
	return l, n, count
}

// BenchmarkArchiveRangeIndexed reads a 5-record window at the tail of a
// 64-segment log through the sparse index.
func BenchmarkArchiveRangeIndexed(b *testing.B) {
	l, n, counter := benchLog(b, 1024, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := l.Range(n-5, n, func(telemetry.Info) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != 5 {
			b.Fatalf("count=%d", count)
		}
	}
	b.ReportMetric(float64(counter("read_bytes"))/float64(b.N), "readbytes/op")
}

// BenchmarkArchiveReplayLinear is the baseline: replay every segment and
// filter to the same 5-record window.
func BenchmarkArchiveReplayLinear(b *testing.B) {
	l, n, counter := benchLog(b, 1024, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := l.Replay(func(in telemetry.Info) error {
			if in.Timestamp >= n-5 && in.Timestamp <= n {
				count++
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if count != 5 {
			b.Fatalf("count=%d", count)
		}
	}
	b.ReportMetric(float64(counter("read_bytes"))/float64(b.N), "readbytes/op")
}
