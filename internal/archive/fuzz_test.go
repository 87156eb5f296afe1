package archive

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// fuzzSegment builds a well-formed segment of n sequential records, one
// block each.
func fuzzSegment(n int) []byte {
	var b []byte
	for ts := 0; ts < n; ts++ {
		b = encodeBlock(b, TierRaw, []telemetry.Info{telemetry.NewFact("fuzz.metric", int64(ts), float64(ts))})
	}
	return b
}

// FuzzSegmentReplay writes arbitrary bytes as an on-disk .blk segment and
// replays it: Open/Replay/Range must never panic and never error on corrupt
// data — torn or damaged blocks are skipped via resync and counted, and
// every record that is delivered must carry an intact CRC (i.e. decode back
// from its own re-encoding).
func FuzzSegmentReplay(f *testing.F) {
	whole := fuzzSegment(4)
	f.Add(whole)
	f.Add([]byte{})
	f.Add(whole[:len(whole)-5])                 // torn tail
	f.Add(append([]byte{0xFF, 0x00}, whole...)) // garbage prefix, resync required
	mid := append([]byte(nil), whole...)
	mid[len(whole)/2] ^= 0xA5 // corrupt middle record
	f.Add(mid)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		defer l.Close()

		var replayed int
		if err := l.Replay(func(in telemetry.Info) error {
			replayed++
			enc, err := in.MarshalBinary()
			if err != nil {
				t.Fatalf("delivered undecodable tuple %v: %v", in, err)
			}
			var back telemetry.Info
			if err := back.UnmarshalBinary(enc); err != nil {
				t.Fatalf("delivered tuple fails its own CRC: %v", err)
			}
			return nil
		}); err != nil {
			t.Fatalf("Replay errored on corrupt data: %v", err)
		}

		var ranged int
		if err := l.Range(math.MinInt64, math.MaxInt64, func(telemetry.Info) error { ranged++; return nil }); err != nil {
			t.Fatalf("Range errored on corrupt data: %v", err)
		}
		if ranged != replayed {
			t.Fatalf("Range saw %d records, Replay saw %d", ranged, replayed)
		}
	})
}
