package archive

import (
	"bytes"
	"encoding/binary"
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
		if s, err := l.Aggregate(math.MinInt64, math.MaxInt64); err != nil || s.Count != int64(ranged) {
			t.Fatalf("Aggregate folded %d records (err %v), Range saw %d", s.Count, err, ranged)
		}
	})
}

// FuzzSidecar: hostile bytes never panic the sidecar decoder, a sidecar it
// accepts marshals back to the same bytes, and an index built from arbitrary
// field values, with block folds or without, survives marshal then
// unmarshal unchanged.
func FuzzSidecar(f *testing.F) {
	_, si := encodeBlocks(TierRaw, syntheticCorpus(3*blockRecords))
	f.Add(si.marshal(nil))
	_, si = encodeBlocks(Tier10s, syntheticCorpus(3*blockRecords))
	f.Add(si.marshal(nil))
	f.Add([]byte{})
	f.Add(make([]byte, idxHeaderSize+idxEntrySize+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := unmarshalSegIndex(data); err == nil && !bytes.Equal(got.marshal(nil), data) {
			t.Fatalf("accepted sidecar re-marshals differently:\n in  %x\n out %x", data, got.marshal(nil))
		}
		// The same bytes read as the fields of an index.
		word := func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		}
		flags := word()
		si := &segIndex{size: int64(word()), records: uint32(word()), sorted: flags&1 != 0, folded: flags&2 != 0, firstTS: int64(word()), lastTS: int64(word())}
		si.total = telemetry.Summary{Sum: math.Float64frombits(word()), Min: math.Float64frombits(word()), Max: math.Float64frombits(word())}
		for len(data) > 0 && len(si.offs) < 64 {
			si.offs = append(si.offs, idxEntry{off: int64(word()), first: int64(word())})
			if si.folded {
				si.folds = append(si.folds, telemetry.Summary{
					First: si.offs[len(si.offs)-1].first, Last: int64(word()), Count: int64(uint32(word())),
					Sum: math.Float64frombits(word()), Min: math.Float64frombits(word()), Max: math.Float64frombits(word()),
				})
			}
			si.blocks++
		}
		b := si.marshal(nil)
		back, err := unmarshalSegIndex(b)
		if err != nil {
			t.Fatalf("own sidecar refused: %v", err)
		}
		if !bytes.Equal(back.marshal(nil), b) {
			t.Fatalf("round trip changed the index: %+v != %+v", back, si)
		}
	})
}
