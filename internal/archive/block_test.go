package archive

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/block"
)

// sameInfo compares tuples with bit-level float equality so NaN values and
// negative zero round-trip honestly.
func sameInfo(a, b telemetry.Info) bool {
	return a.Metric == b.Metric && a.Timestamp == b.Timestamp &&
		a.Kind == b.Kind && a.Source == b.Source &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

func TestBlockRoundTrip(t *testing.T) {
	infos := []telemetry.Info{
		telemetry.NewFact("node0.nvme0.capacity", 1_000_000_000, 512.0),
		telemetry.NewFact("node0.nvme0.capacity", 2_000_000_000, 512.0),
		telemetry.NewFact("node0.nvme0.capacity", 3_000_000_000, 511.5),
		telemetry.NewPredictedFact("node0.nvme0.capacity", 3_500_000_000, 511.2),
		{Metric: "cluster.capacity", Timestamp: 4_000_000_000, Value: 8192.0, Kind: telemetry.KindInsight, Source: telemetry.Measured},
		{Metric: "weird", Timestamp: -7, Value: math.Inf(-1), Kind: telemetry.KindFact, Source: telemetry.Measured},
		{Metric: "weird", Timestamp: -7, Value: math.NaN(), Kind: telemetry.KindFact, Source: telemetry.Measured},
	}
	blob := encodeBlock(nil, 0, infos)
	got, n, err := decodeBlock(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(blob) {
		t.Fatalf("consumed %d of %d bytes", n, len(blob))
	}
	if len(got) != len(infos) {
		t.Fatalf("decoded %d records, want %d", len(got), len(infos))
	}
	for i := range infos {
		if !sameInfo(got[i], infos[i]) {
			t.Fatalf("record %d: %v != %v", i, got[i], infos[i])
		}
	}
	if blockTier(blob) != 0 {
		t.Fatalf("tier=%d", blockTier(blob))
	}
}

func TestBlockRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	metrics := []telemetry.MetricID{"a", "node1.ssd3.write_latency", "x.y"}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		infos := make([]telemetry.Info, n)
		ts := rng.Int63n(1 << 40)
		v := rng.NormFloat64() * 1000
		for i := range infos {
			// Mixed regimes: steady ticks with occasional jumps, repeated
			// and random values, out-of-order timestamps now and then.
			switch rng.Intn(4) {
			case 0:
				ts += 1_000_000_000 // a steady 1s tick
			case 1:
				ts += rng.Int63n(1 << 30)
			case 2:
				ts -= rng.Int63n(1 << 20)
			}
			if rng.Intn(3) == 0 {
				v = rng.NormFloat64() * 1000
			}
			infos[i] = telemetry.Info{
				Metric:    metrics[rng.Intn(len(metrics))],
				Timestamp: ts,
				Value:     v,
				Kind:      telemetry.Kind(rng.Intn(2)),
				Source:    telemetry.Source(rng.Intn(2)),
			}
		}
		blob, si := encodeBlocks(0, infos)
		if si.records != uint32(n) {
			t.Fatalf("trial %d: index records=%d want %d", trial, si.records, n)
		}
		var got []telemetry.Info
		rest := blob
		for len(rest) > 0 {
			part, used, err := decodeBlock(rest)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got = append(got, part...)
			rest = rest[used:]
		}
		if len(got) != n {
			t.Fatalf("trial %d: decoded %d, want %d", trial, len(got), n)
		}
		for i := range infos {
			if !sameInfo(got[i], infos[i]) {
				t.Fatalf("trial %d record %d: %v != %v", trial, i, got[i], infos[i])
			}
		}
	}
}

// syntheticCorpus models real monitoring telemetry: one long metric name, a
// steady 1s sample tick, a mostly-flat value with occasional step changes —
// the regime Gorilla compression is built for.
func syntheticCorpus(n int) []telemetry.Info {
	rng := rand.New(rand.NewSource(7))
	infos := make([]telemetry.Info, n)
	ts := int64(1_700_000_000_000_000_000)
	v := 3_840_755_982_336.0 // bytes free on a ~4TB device
	for i := range infos {
		ts += 1_000_000_000
		if rng.Intn(10) == 0 {
			v -= float64(rng.Intn(64)) * 1048576.0 // a write burst lands
		}
		infos[i] = telemetry.NewFact("node01.nvme0.capacity_total", ts, v)
	}
	return infos
}

// TestBlockCompressionRatio is the ISSUE 7 acceptance gate: Gorilla blocks
// must shrink a realistic synthetic corpus at least 5x versus the raw
// record encoding.
func TestBlockCompressionRatio(t *testing.T) {
	infos := syntheticCorpus(8192)
	var raw []byte
	for _, in := range infos {
		var err error
		raw, err = in.AppendBinary(raw)
		if err != nil {
			t.Fatal(err)
		}
	}
	blob, _ := encodeBlocks(0, infos)
	ratio := float64(len(raw)) / float64(len(blob))
	t.Logf("raw=%d compressed=%d ratio=%.1fx", len(raw), len(blob), ratio)
	if ratio < 5 {
		t.Fatalf("compression ratio %.2fx < 5x (raw %d, compressed %d)", ratio, len(raw), len(blob))
	}
}

func TestEncodeBlocksChunksAndIndexes(t *testing.T) {
	infos := syntheticCorpus(block.MaxRecords*2 + 100)
	blob, si := encodeBlocks(0, infos)
	if len(si.offs) != 3 {
		t.Fatalf("blocks=%d, want 3", len(si.offs))
	}
	if !si.sorted || si.firstTS != infos[0].Timestamp || si.lastTS != infos[len(infos)-1].Timestamp {
		t.Fatalf("index envelope wrong: %+v", si)
	}
	if si.size != int64(len(blob)) {
		t.Fatalf("index size=%d, file=%d", si.size, len(blob))
	}
	// Each sparse entry must point at a decodable block whose tuples fold to
	// the entry's fold, first timestamp included.
	for i, e := range si.offs {
		fold := si.folds[i]
		part, _, err := decodeBlock(blob[e.off:])
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		var want telemetry.Summary
		for _, in := range part {
			want.Add(in)
		}
		if fold != want || part[0].Timestamp != e.first {
			t.Fatalf("entry %d: fold %+v, first %d; block folds to %+v and starts at %d", i, fold, e.first, want, part[0].Timestamp)
		}
	}
}

func TestBlockDecodeTruncatedNeverDecodes(t *testing.T) {
	blob := encodeBlock(nil, 0, syntheticCorpus(100))
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := decodeBlock(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	// And a flipped byte anywhere must fail the CRC — the whole frame is
	// covered, so no single corruption may decode.
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x5A
		if _, _, err := decodeBlock(mut); err == nil {
			t.Fatalf("flip at byte %d still decoded", i)
		}
	}
}

// blockTier reports the tier byte of the block at the front of b (b must
// already have passed decodeBlock's framing checks): the byte after the
// magic, the frame length and the version.
func blockTier(b []byte) uint8 { return b[9] }
