package block

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// sameInfo compares tuples with bit-level float equality so NaN values and
// negative zero round-trip honestly.
func sameInfo(a, b telemetry.Info) bool {
	return a.Metric == b.Metric && a.Timestamp == b.Timestamp &&
		a.Kind == b.Kind && a.Source == b.Source &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// encodeBlock appends one frame holding infos (1 to MaxRecords of them) to
// dst.
func encodeBlock(dst []byte, tier uint8, infos []telemetry.Info) []byte {
	var b Writer
	for _, in := range infos {
		b.Add(in)
	}
	return b.AppendFrame(dst, tier)
}

// decodeBlock decodes the whole frame at the front of b, returning its
// tuples and the frame length, or an error if any check or record fails.
func decodeBlock(b []byte) ([]telemetry.Info, int, error) {
	var r Reader
	n, err := r.Open(b)
	if err != nil {
		return nil, 0, err
	}
	var out []telemetry.Info
	for r.Next() {
		out = append(out, r.Info())
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// blockTier reports the tier byte of the frame at the front of b (b must
// already have passed Open's checks).
func blockTier(b []byte) uint8 { return b[9] }

// FuzzBlockDecode throws arbitrary bytes at the compressed block decoder:
// it must never panic, never accept a frame it cannot canonically re-encode,
// and never report an out-of-bounds consumed length. Accepted blocks must
// round-trip bit-exactly through the encoder (canonical form), which writes
// version 2 — except a version 1 frame holding a Source version 2 has no bit
// for — and the resync scanner must likewise survive any input. Its seeds
// are frames of both versions and damaged copies of them.
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

	if v1, err := os.ReadFile("testdata/v1/frame.blk"); err == nil {
		f.Add(v1)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		defer Resync(data) // must not panic either
		infos, n, err := decodeBlock(data)
		if err == nil {
			if n < blkMinFrame || n > len(data) {
				t.Fatalf("decodeBlock consumed %d of %d bytes", n, len(data))
			}
			if len(infos) == 0 || len(infos) > MaxRecords {
				t.Fatalf("decodeBlock returned %d records", len(infos))
			}
			for _, in := range infos {
				if in.Source > telemetry.Predicted {
					if data[8] != 1 {
						t.Fatalf("a version %d frame decoded source %d", data[8], in.Source)
					}
					return // a version 1 frame holds sources a version 2 one cannot
				}
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
	})
}

// series is a full block of one metric's telemetry: a steady 5 ms tick and a
// value taking standard normal steps from 1000-1100.
func series() []telemetry.Info {
	rng := rand.New(rand.NewSource(1))
	infos := make([]telemetry.Info, MaxRecords)
	in := telemetry.NewFact("node01.nvme0.capacity_total", 1_700_000_000_000_000_000, 1000+100*rng.Float64())
	for i := range infos {
		in.Timestamp += 5_000_000
		in.Value += rng.NormFloat64()
		infos[i] = in
	}
	return infos
}

// BenchmarkEncode renders a full block: ns/record to add a tuple and frame
// the block, B/record the frame's size per tuple.
func BenchmarkEncode(b *testing.B) {
	infos := series()
	var (
		w     Writer
		frame []byte
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, in := range infos {
			w.Add(in)
		}
		frame = w.AppendFrame(frame[:0], 0)
		w.Reset()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(infos)), "ns/record")
	b.ReportMetric(float64(len(frame))/float64(len(infos)), "B/record")
}

// BenchmarkDecode checks and decodes a full block through one reused Reader.
func BenchmarkDecode(b *testing.B) {
	frame := encodeBlock(nil, 0, series())
	var r Reader
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Open(frame); err != nil {
			b.Fatal(err)
		}
		for r.Next() {
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*MaxRecords), "ns/record")
}

// refBitWriter is the bit-at-a-time writer the codec used before its 64-bit
// accumulator, kept as the reference the value column must match byte for
// byte.
type refBitWriter struct {
	buf  []byte
	free uint // unused bits in the last byte
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v <<= 64 - n // left-align
	}
	for n > 0 {
		if w.free == 0 {
			w.buf = append(w.buf, 0)
			w.free = 8
		}
		take := min(n, w.free)
		w.buf[len(w.buf)-1] |= byte(v >> (64 - take) << (w.free - take))
		v <<= take
		w.free -= take
		n -= take
	}
}

// refXOR is xorEncoder over refBitWriter.
type refXOR struct {
	w          refBitWriter
	prev       uint64
	lead, mean uint
	first      bool
}

func (e *refXOR) add(v float64) {
	b := math.Float64bits(v)
	if !e.first {
		e.first, e.prev = true, b
		e.w.writeBits(b, 64)
		return
	}
	x := e.prev ^ b
	e.prev = b
	if x == 0 {
		e.w.writeBits(0, 1)
		return
	}
	e.w.writeBits(1, 1)
	lead := min(uint(bits.LeadingZeros64(x)), 63)
	trail := uint(bits.TrailingZeros64(x))
	mean := 64 - lead - trail
	if e.mean != 0 && lead >= e.lead && mean <= e.mean && trail >= 64-e.lead-e.mean {
		e.w.writeBits(0, 1)
		e.w.writeBits(x>>(64-e.lead-e.mean), e.mean)
		return
	}
	e.lead, e.mean = lead, mean
	e.w.writeBits(1, 1)
	e.w.writeBits(uint64(lead), 6)
	e.w.writeBits(uint64(mean-1), 6)
	e.w.writeBits(x>>trail, mean)
}

// checkMatchesReference adds infos to one Writer and, after each record cut
// marks and after the last, requires AppendFrame to render exactly the frame
// whose value column the reference writer produced from the same values, and
// that frame to decode back to the records added so far.
func checkMatchesReference(t *testing.T, infos []telemetry.Info, cut func(i int) bool) {
	t.Helper()
	var (
		w   Writer
		ref refXOR
	)
	prefix := []byte("dst")
	for i, in := range infos {
		w.Add(in)
		ref.add(in.Value)
		if !cut(i) && i != len(infos)-1 {
			continue
		}
		got := w.AppendFrame(prefix, 7)
		want := w
		want.vals.w = bitWriter{buf: ref.w.buf}
		if exp := want.AppendFrame(prefix, 7); !bytes.Equal(got, exp) {
			t.Fatalf("after %d of %d records: frame differs from the reference\n got %x\nwant %x", i+1, len(infos), got, exp)
		}
		back, _, err := decodeBlock(got[len(prefix):])
		if err != nil || len(back) != i+1 {
			t.Fatalf("after %d records: decode = %d records, %v", i+1, len(back), err)
		}
		for j := range back {
			if !sameInfo(back[j], infos[j]) {
				t.Fatalf("after %d records: record %d decodes to %v, want %v", i+1, j, back[j], infos[j])
			}
		}
	}
}

// TestWriterMatchesReference: the accumulator writer renders every frame
// byte for byte as the bit-at-a-time writer did, at the end of a block and
// mid-block with more records added after, over series of 1 to MaxRecords
// records mixing NaN, ±Inf, −0, runs of equal values, random bit patterns,
// small steps and XORs that fill all 64 bits.
func TestWriterMatchesReference(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.Float64frombits(1<<63 | 1), math.Float64frombits(1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	lengths := []int{1, 2, 3, 7, 8, 9, 63, 64, 65, 100, 511, 512, 1023, MaxRecords}
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		lengths = append(lengths, 1+rng.Intn(MaxRecords))
	}
	for _, n := range lengths {
		infos := make([]telemetry.Info, n)
		v := 1000.0
		for i := range infos {
			switch rng.Intn(6) {
			case 0:
				v = specials[rng.Intn(len(specials))]
			case 1: // a run of equal values
			case 2:
				v = math.Float64frombits(rng.Uint64())
			case 3: // the XOR with the last value has its top and bottom bits set
				v = math.Float64frombits(math.Float64bits(v) ^ (1<<63 | 1 | rng.Uint64()))
			default:
				v += rng.NormFloat64()
			}
			infos[i] = telemetry.NewFact("node01.nvme0.capacity_total", int64(i)*5_000_000, v)
		}
		every := 1 + rng.Intn(n)
		checkMatchesReference(t, infos, func(i int) bool { return i%every == every-1 })
	}
}

// FuzzWriterMatchesReference reads the input as a cut stride and then one
// float64 bit pattern per 8 bytes, and checks the frames the way
// TestWriterMatchesReference does.
func FuzzWriterMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append([]byte{3}, bytes.Repeat([]byte{0x40, 0x8f, 0x40, 0, 0, 0, 0, 0}, 9)...))
	f.Add([]byte{2, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		every := 1 + int(data[0])
		data = data[1:]
		infos := make([]telemetry.Info, 0, min(len(data)/8, MaxRecords))
		for i := 0; i+8 <= len(data) && len(infos) < MaxRecords; i += 8 {
			v := math.Float64frombits(binary.BigEndian.Uint64(data[i:]))
			infos = append(infos, telemetry.NewFact("fuzz.metric", int64(i), v))
		}
		checkMatchesReference(t, infos, func(i int) bool { return i%every == every-1 })
	})
}

// infoLine renders a tuple as the lines of testdata/v1/frame.txt do, its
// value as a bit pattern.
func infoLine(in telemetry.Info) string {
	return fmt.Sprintf("%s %d %d %d %016x", in.Metric, in.Timestamp, in.Kind, in.Source, math.Float64bits(in.Value))
}

// TestDecodesVersion1: testdata/v1/frame.blk is a version 1 frame an earlier
// build wrote — 300 tuples in runs of two metrics and both kinds, sources in
// Delphi's one-measured-three-predicted pattern, ±Inf, −0 and MaxFloat64
// among the values — and frame.txt the records that build decoded from it.
// The frame decodes to them record for record, and its records re-encode as
// a smaller version 2 frame that decodes to them too.
func TestDecodesVersion1(t *testing.T) {
	frame, err := os.ReadFile("testdata/v1/frame.blk")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/v1/frame.txt")
	if err != nil {
		t.Fatal(err)
	}
	if frame[8] != 1 {
		t.Fatalf("testdata frame is version %d, want 1", frame[8])
	}
	infos, n, err := decodeBlock(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("decode = %d of %d bytes, %v", n, len(frame), err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(infos) != len(lines) || Records(frame) != len(lines) {
		t.Fatalf("decoded %d records, header says %d, want %d", len(infos), Records(frame), len(lines))
	}
	for i, in := range infos {
		if got := infoLine(in); got != lines[i] {
			t.Fatalf("record %d decodes to %q, want %q", i, got, lines[i])
		}
	}
	v2 := encodeBlock(nil, 0, infos)
	back, _, err := decodeBlock(v2)
	if err != nil || len(back) != len(infos) {
		t.Fatalf("version 2 re-encode decodes to %d records, %v", len(back), err)
	}
	for i := range back {
		if !sameInfo(back[i], infos[i]) {
			t.Fatalf("record %d: version 2 round trip %v, want %v", i, back[i], infos[i])
		}
	}
	if v2[8] != blkVersion || len(v2) >= len(frame) {
		t.Fatalf("re-encoded as version %d in %d bytes; want version %d below the version 1 frame's %d", v2[8], len(v2), blkVersion, len(frame))
	}
}

// sourceStreamLen is the length prefix of a version 2 frame's source stream,
// read by walking the header, the dictionary and the meta stream.
func sourceStreamLen(frame []byte) int {
	p := blkHeaderSize
	for range binary.LittleEndian.Uint16(frame[10:]) {
		p += 2 + int(binary.LittleEndian.Uint16(frame[p:]))
	}
	p += 4 + int(binary.LittleEndian.Uint32(frame[p:]))
	return int(binary.LittleEndian.Uint32(frame[p:]))
}

// TestSourceColumnRoundTrip: frames of random lengths whose sources follow a
// random pattern — all measured, all predicted, Delphi's fill, runs, single
// flips, coin flips — decode to the records added, with every other column
// mixed in, and the source column costs one byte when the sources are all
// equal and one byte plus one bit a record otherwise.
func TestSourceColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patterns := map[string]func(i, n int) bool{
		"measured":  func(int, int) bool { return false },
		"predicted": func(int, int) bool { return true },
		"delphi":    func(i, _ int) bool { return i%4 != 0 },
		"runs":      func(i, _ int) bool { return i/9%2 == 1 },
		"first":     func(i, _ int) bool { return i == 0 },
		"last":      func(i, n int) bool { return i == n-1 },
		"coin":      func(int, int) bool { return rng.Intn(2) == 0 },
	}
	for name, predicted := range patterns {
		for _, n := range []int{1, 2, 7, 8, 9, 64, 100, 1 + rng.Intn(MaxRecords), MaxRecords} {
			infos := make([]telemetry.Info, n)
			in := telemetry.NewFact("a", 1_700_000_000_000_000_000, 1000)
			measured := 0
			for i := range infos {
				in.Timestamp += int64(rng.Intn(3)) * 5_000_000
				in.Value += rng.NormFloat64()
				if rng.Intn(16) == 0 {
					in.Metric = []telemetry.MetricID{"a", "b", "c"}[rng.Intn(3)]
					in.Kind = telemetry.Kind(rng.Intn(256))
				}
				in.Source = telemetry.Measured
				if predicted(i, n) {
					in.Source = telemetry.Predicted
				} else {
					measured++
				}
				infos[i] = in
			}
			frame := encodeBlock(nil, 3, infos)
			back, m, err := decodeBlock(frame)
			if err != nil || m != len(frame) || len(back) != n {
				t.Fatalf("%s, %d records: decode = %d records of %d bytes, %v", name, n, len(back), m, err)
			}
			for i := range back {
				if !sameInfo(back[i], infos[i]) {
					t.Fatalf("%s, %d records: record %d decodes to %v, want %v", name, n, i, back[i], infos[i])
				}
			}
			want := 1
			if measured != 0 && measured != n {
				want += (n + 7) / 8
			}
			if got := sourceStreamLen(frame); got != want {
				t.Errorf("%s, %d records (%d measured): source column of %d bytes, want %d", name, n, measured, got, want)
			}
		}
	}
}

// TestSkipsLaterStreams: a version 2 frame may carry streams after the value
// stream (DESIGN §4i: where roll-up columns go); a reader that does not know
// them checks their bounds and decodes the records as if they were absent.
func TestSkipsLaterStreams(t *testing.T) {
	infos := series()[:100]
	frame := encodeBlock(nil, 1, infos)
	body := frame[:len(frame)-4]
	body = binary.LittleEndian.AppendUint32(append([]byte(nil), body...), 3)
	body = append(body, 1, 2, 3)
	body = binary.LittleEndian.AppendUint32(body, 0)
	binary.LittleEndian.PutUint32(body[4:], uint32(len(body)+4))
	ext := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	back, n, err := decodeBlock(ext)
	if err != nil || n != len(ext) || len(back) != len(infos) {
		t.Fatalf("decode = %d records of %d bytes, %v", len(back), n, err)
	}
	for i := range back {
		if !sameInfo(back[i], infos[i]) {
			t.Fatalf("record %d decodes to %v, want %v", i, back[i], infos[i])
		}
	}
	// A stream whose length runs past the CRC is refused.
	binary.LittleEndian.PutUint32(body[len(body)-4:], 1)
	bad := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, _, err := decodeBlock(bad); err == nil {
		t.Fatal("a stream running into the CRC decoded")
	}
}
