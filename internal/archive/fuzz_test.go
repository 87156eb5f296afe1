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

// FuzzBlockDecode throws arbitrary bytes at the compressed block decoder:
// it must never panic, never accept a frame it cannot canonically re-encode,
// and never report an out-of-bounds consumed length. Accepted blocks must
// round-trip bit-exactly through the encoder (canonical form), and the
// resync scanner must likewise survive any input.
func FuzzBlockDecode(f *testing.F) {
	corpus := []telemetry.Info{
		telemetry.NewFact("fuzz.metric", 1_000, 1.0),
		telemetry.NewFact("fuzz.metric", 2_000, 1.0),
		telemetry.NewFact("fuzz.metric", 3_000, 2.5),
		telemetry.NewPredictedFact("other", 3_500, -7.25),
	}
	valid := encodeBlock(nil, 0, corpus)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xA5 // corrupt middle
	f.Add(mut)
	f.Add([]byte{})
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		infos, n, err := decodeBlock(data)
		if err == nil {
			if n < blkMinFrame || n > len(data) {
				t.Fatalf("decodeBlock consumed %d of %d bytes", n, len(data))
			}
			if len(infos) == 0 || len(infos) > blockMaxRecords {
				t.Fatalf("decodeBlock returned %d records", len(infos))
			}
			re := encodeBlock(nil, blockTier(data), infos)
			back, m, err := decodeBlock(re)
			if err != nil || m != len(re) {
				t.Fatalf("re-encode of accepted block fails decode: %v (consumed %d/%d)", err, m, len(re))
			}
			if len(back) != len(infos) {
				t.Fatalf("round trip changed record count %d -> %d", len(infos), len(back))
			}
			for i := range back {
				if !sameInfo(back[i], infos[i]) {
					t.Fatalf("round trip changed record %d: %v -> %v", i, infos[i], back[i])
				}
			}
		}
		resyncBlock(data) // must not panic either
	})
}
