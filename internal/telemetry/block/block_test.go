package block

import (
	"math"
	"math/rand"
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
			if len(infos) == 0 || len(infos) > MaxRecords {
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
		Resync(data) // must not panic either
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
