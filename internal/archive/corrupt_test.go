package archive

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// corruptBlock flips the middle byte of the k-th block of the named segment
// file.
func corruptBlock(t *testing.T, dir string, segment, k int) {
	t.Helper()
	path := filepath.Join(dir, segmentName(segment))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for ; k > 0; k-- {
		off += int(binary.LittleEndian.Uint32(data[off+4:]))
	}
	data[off+int(binary.LittleEndian.Uint32(data[off+4:]))/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendSynced appends one tuple per ts in [0, n) and Syncs after each, so
// every tuple is a block of its own.
func appendSynced(t *testing.T, l *Log, n int64) {
	t.Helper()
	for ts := int64(0); ts < n; ts++ {
		if err := l.Append(telemetry.NewFact("metric", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptMiddleSegmentReplay is the regression test for the silent
// truncation bug: replay returned nil on any decode error, so a corrupt
// block in the middle of a segment silently dropped every later block of
// that segment. Now replay must resynchronize, skip-and-count the bad
// block, and deliver everything after it.
func TestCorruptMiddleSegmentReplay(t *testing.T) {
	dir := t.TempDir()
	recSize := len(mustMarshal(t, telemetry.NewFact("metric", 0, 0)))
	// 4 records per segment; 12 records -> segments 0,1 full, segment 2 active.
	l, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	l.Instrument(r, "metric")
	appendSynced(t, l, 12) // one tuple per block
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the second block of the FIRST (non-active) segment.
	corruptBlock(t, dir, l.segIndexAt(t, 0), 1)

	reopened, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	reopened.Instrument(r, "metric")

	var got []int64
	if err := reopened.Replay(func(i telemetry.Info) error {
		got = append(got, i.Timestamp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// All records must replay except the corrupted block's (ts=1): in
	// particular ts=2 and ts=3 — later blocks of the corrupted segment —
	// were silently dropped by the pre-fix code.
	want := []int64{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}
	if n := r.Snapshot().Counter(obs.Name("archive_corrupt_records_total", "log", "metric")); n != 1 {
		t.Fatalf("obs corrupt counter = %d, want 1", n)
	}
}

// TestCorruptTailOfEarlierSegmentCounted: a decode failure with nothing
// decodable after it is only a "torn write" in the active segment; in an
// earlier segment the remainder must be counted as corrupt, not silently
// treated as crash recovery.
func TestCorruptTailOfEarlierSegmentCounted(t *testing.T) {
	dir := t.TempDir()
	recSize := len(mustMarshal(t, telemetry.NewFact("metric", 0, 0)))
	l, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	appendSynced(t, l, 8) // one tuple per block
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the FIRST segment mid-block: its tail is corrupt but it is
	// not the active segment.
	first := filepath.Join(dir, segmentName(l.segIndexAt(t, 0)))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)-recSize/2], 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, Options{SegmentBytes: int64(4 * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	count := counters(reopened)
	var n int
	if err := reopened.Replay(func(telemetry.Info) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 7 { // 3 intact in segment 0, 4 in segment 1
		t.Fatalf("replayed %d records, want 7", n)
	}
	if c := count("corrupt_records"); c != 1 {
		t.Fatalf("corrupt records = %d, want 1 (truncated earlier-segment tail)", c)
	}
}

// TestTornActiveTailStillSilent re-checks the crash-recovery contract after
// the fix: a torn tail on the ACTIVE segment neither errors nor counts.
func TestTornActiveTailStillSilent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendSynced(t, l, 3) // one tuple per block
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	active := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(active, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: the torn file is now an earlier segment... so replay it while
	// it is still the active one by constructing the Log around it directly.
	reopened := &Log{dir: dir, segmentBytes: DefaultSegmentBytes, closed: true}
	count := counters(reopened)
	var n int
	if err := reopened.Replay(func(telemetry.Info) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	if c := count("corrupt_records"); c != 0 {
		t.Fatalf("corrupt records = %d, want 0 for a torn active tail", c)
	}
}

func (l *Log) segIndexAt(t *testing.T, n int) int {
	t.Helper()
	segs := rawSegments(t, l)
	if n >= len(segs) {
		t.Fatalf("segment %d of %d", n, len(segs))
	}
	return segs[n]
}

func mustMarshal(t *testing.T, in telemetry.Info) []byte {
	t.Helper()
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
