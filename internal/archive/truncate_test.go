package archive

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// TestTruncatedSegmentEveryOffset is the crash-consistency property test: a
// crash can cut the tail segment at ANY byte boundary, and for every single
// offset the reopened log must (a) open without error, (b) replay exactly the
// valid block prefix — all sealed-segment records plus every complete block
// of the cut segment, nothing more, nothing reordered — and (c) rebuild the
// index sidecars from the data so Range agrees with Replay. Every tuple is a
// block of its own (a Sync after each append).
func TestTruncatedSegmentEveryOffset(t *testing.T) {
	const perSeg = 4
	recSize := len(mustMarshal(t, telemetry.NewFact("m", 0, 0)))

	// Build a reference log: segment 0 sealed with ts 0..3, segment 1 with
	// ts 4..7.
	ref := t.TempDir()
	l, err := Open(ref, Options{SegmentBytes: int64(perSeg * recSize)})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 2*perSeg; ts++ {
		if err := l.Append(telemetry.NewFact("m", ts, float64(ts))); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := rawSegments(t, l)
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v", segs)
	}
	seg0, err := os.ReadFile(filepath.Join(ref, segmentName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	seg1, err := os.ReadFile(filepath.Join(ref, segmentName(segs[1])))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // where each block of seg1 ends
	for off := 0; off < len(seg1); {
		off += int(binary.LittleEndian.Uint32(seg1[off+4:]))
		ends = append(ends, off)
	}

	for cut := 0; cut <= len(seg1); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), seg0, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg1[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// No sidecars on disk: Open must rebuild both from the segments.
		re, err := Open(dir, Options{SegmentBytes: int64(perSeg * recSize)})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if n := counters(re)("index_rebuilds"); n != 2 {
			t.Fatalf("cut=%d: rebuilt %d sidecars, want 2", cut, n)
		}

		want := make([]int64, 0, 2*perSeg)
		for ts := 0; ts < perSeg; ts++ {
			want = append(want, int64(ts))
		}
		for ts := 0; ts < len(ends) && ends[ts] <= cut; ts++ { // complete blocks that survived the cut
			want = append(want, int64(perSeg+ts))
		}

		var got []int64
		if err := re.Replay(func(in telemetry.Info) error {
			got = append(got, in.Timestamp)
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: Replay: %v", cut, err)
		}
		if len(got) != len(want) {
			t.Fatalf("cut=%d: replayed %v, want %v", cut, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut=%d: replayed %v, want %v", cut, got, want)
			}
		}

		// The rebuilt sidecars must exist on disk and steer Range to exactly
		// the records Replay delivered.
		for i := 0; i < 2; i++ {
			if _, err := os.Stat(filepath.Join(dir, indexName(i))); err != nil {
				t.Fatalf("cut=%d: sidecar %d not rebuilt on disk: %v", cut, i, err)
			}
		}
		var ranged int
		if err := re.Range(math.MinInt64, math.MaxInt64, func(telemetry.Info) error { ranged++; return nil }); err != nil {
			t.Fatalf("cut=%d: Range: %v", cut, err)
		}
		if ranged != len(got) {
			t.Fatalf("cut=%d: Range saw %d records, Replay saw %d", cut, ranged, len(got))
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
	}
}
