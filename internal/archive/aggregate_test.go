package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// foldRange is the reference Aggregate is held to: Range's tuples folded one
// by one.
func foldRange(t *testing.T, l *Log, from, to int64) telemetry.Summary {
	t.Helper()
	var s telemetry.Summary
	for _, in := range rangeAll(t, l, from, to) {
		s.Add(in)
	}
	return s
}

// sameBits reports whether a and b are the same float, any NaN matching any
// NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkFold requires got to equal want: Count, Min, Max, First and Last
// exactly, Sum within 1e-12 relative (Aggregate adds per-block sums).
func checkFold(t *testing.T, step string, from, to int64, got, want telemetry.Summary) {
	t.Helper()
	sumOK := sameBits(got.Sum, want.Sum) || math.Abs(got.Sum-want.Sum) <= 1e-12*math.Max(math.Abs(got.Sum), math.Abs(want.Sum))
	if got.Count != want.Count || got.First != want.First || got.Last != want.Last ||
		!sameBits(got.Min, want.Min) || !sameBits(got.Max, want.Max) || !sumOK {
		t.Fatalf("%s: Aggregate(%d, %d) = %+v, fold over Range = %+v", step, from, to, got, want)
	}
}

// TestAggregateEqualsScanProperty: over random series with repeated
// timestamps, signed zeros and the odd NaN, under Syncs in mid-block,
// rotation at a small SegmentBytes, reopening with v3 sidecars and with the
// sidecars deleted, and compaction into roll-ups, every Aggregate equals a
// fold over Range's tuples. The "spill" runs append enough to a segment for
// its block entries to go to its sidecar foldBatch at a time, so the folds
// are read back from partial and sealed sidecars alike.
func TestAggregateEqualsScanProperty(t *testing.T) {
	for _, c := range []struct {
		name    string
		segment int64
		burst   int
		seeds   []int64
	}{
		{"small", 48 << 10, 3 * blockRecords, []int64{1, 2, 3, 4}}, // a few blocks a segment
		{"spill", 512 << 10, 24 * blockRecords, []int64{2, 3}},     // ~80 blocks a segment
	} {
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				testAggregateEqualsScan(t, seed, Options{SegmentBytes: c.segment}, c.burst)
			})
		}
	}
}

func testAggregateEqualsScan(t *testing.T, seed int64, opts Options, burst int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	var stamps []int64 // every appended timestamp, to aim windows at
	ts := int64(time.Hour)
	value := func() float64 {
		switch rng.Intn(200) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			if seed%2 == 0 {
				return math.NaN()
			}
		}
		return rng.Float64() * 100
	}
	check := func(step string) {
		t.Helper()
		windows := [][2]int64{{math.MinInt64, math.MaxInt64}}
		for range 12 {
			a, b := stamps[rng.Intn(len(stamps))], stamps[rng.Intn(len(stamps))]
			windows = append(windows, [2]int64{min(a, b), max(a, b)}, [2]int64{min(a, b) + 1, max(a, b) - 1})
		}
		for _, w := range windows {
			got, err := l.Aggregate(w[0], w[1])
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			checkFold(t, step, w[0], w[1], got, foldRange(t, l, w[0], w[1]))
		}
	}
	for step := 0; step < 24; step++ {
		name := ""
		switch op := rng.Intn(10); {
		case op < 5:
			name = "append"
			for n := rng.Intn(burst); n > 0; n-- {
				switch r := rng.Intn(64); {
				case r < 8: // a repeated timestamp
				case r == 8 && seed == 3:
					ts -= rng.Int63n(600) * int64(time.Second) // an unsorted segment
				default:
					ts += 1 + rng.Int63n(2*int64(time.Second))
				}
				if err := l.Append(telemetry.NewFact("m", ts, value())); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				stamps = append(stamps, ts)
			}
		case op < 6:
			name = "sync"
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		case op < 7:
			name = "compact"
			// The older third of the span rolls to 10 s, the oldest
			// third on to 1 m.
			span := ts - int64(time.Hour)
			policy := Retention{Raw: time.Duration(2 * span / 3), Rollup10s: time.Duration(span / 3)}
			if _, err := l.Compact(ts, policy); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
		default:
			name = "reopen"
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if op == 9 {
				name = "reopen without sidecars"
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if strings.HasSuffix(e.Name(), ".idx") {
						if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if l, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		if len(stamps) > 0 {
			check(fmt.Sprintf("step %d %s", step, name))
		}
	}
}

// TestOpenRebuildsVersion2Sidecar: a sidecar in the format before per-block
// folds (version 2: an offset and a first timestamp an entry) is rebuilt on
// Open as version 3, and Aggregate over the file folds what Range streams.
func TestOpenRebuildsVersion2Sidecar(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 4*blockRecords+10; ts++ {
		if err := l.Append(telemetry.NewFact("m", ts, float64(ts%17))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(dir, indexName(0))
	st, err := os.Stat(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	si, err := loadSidecar(side, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	// Version 2's header had no file fold; its entries no block folds.
	v2 := append([]byte(nil), si.marshal(nil)[:idxHeaderSize-4-3*8]...)
	v2[4], v2[5] = 2, v2[5]&^idxFlagFolds
	v2 = binary.LittleEndian.AppendUint32(v2, uint32(len(si.offs)))
	for _, e := range si.offs {
		v2 = binary.LittleEndian.AppendUint64(v2, uint64(e.off))
		v2 = binary.LittleEndian.AppendUint64(v2, uint64(e.first))
	}
	if err := os.WriteFile(side, binary.LittleEndian.AppendUint32(v2, crc32.ChecksumIEEE(v2)), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := counters(l)("index_rebuilds"); n != 1 {
		t.Fatalf("index rebuilds = %d, want 1 for the version-2 sidecar", n)
	}
	if b, err := os.ReadFile(side); err != nil || b[4] != idxVersion {
		t.Fatalf("sidecar after Open: version %v (err %v), want %d", b[4:5], err, idxVersion)
	}
	for _, w := range [][2]int64{{math.MinInt64, math.MaxInt64}, {blockRecords / 2, 3*blockRecords + 1}} {
		got, err := l.Aggregate(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		checkFold(t, "after rebuild", w[0], w[1], got, foldRange(t, l, w[0], w[1]))
	}
}

// TestIndexKeepsNoFoldsInMemory: what a log keeps in memory of its index is
// one seek point per block.MaxRecords tuples and no block folds, for sealed
// segments and the active one alike, plus fewer than foldBatch pending
// sidecar entries; the block folds live in the sidecars, partial or sealed.
// A copy of the directory taken without Close (a crash) reopens with the
// active segment's partial sidecar rebuilt, and on every copy Aggregate
// folds what Range streams.
func TestIndexKeepsNoFoldsInMemory(t *testing.T) {
	dir := t.TempDir()
	recSize := int64(telemetry.NewFact("m", 0, 0).EncodedSize())
	opts := Options{SegmentBytes: 100 * blockRecords * recSize} // 100 blocks a segment
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 250*blockRecords + 17 // two sealed segments, 50 blocks and an open one in the third
	for ts := int64(1); ts <= n; ts++ {
		if err := l.Append(telemetry.NewFact("m", ts, float64(ts%97))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(l *Log, step string, cheap bool) {
		t.Helper()
		l.mu.Lock()
		indexes := []*segIndex{l.active}
		for _, si := range l.idx {
			indexes = append(indexes, si)
		}
		pending := len(l.pend) / idxEntrySize
		l.mu.Unlock()
		for _, si := range indexes {
			if si.folds != nil || len(si.offs) != (si.blocks+seekStride-1)/seekStride || !si.folded {
				t.Fatalf("%s: index of %d blocks keeps %d seek points and %d folds (folded %v), want %d and none", step, si.blocks, len(si.offs), len(si.folds), si.folded, (si.blocks+seekStride-1)/seekStride)
			}
		}
		if pending >= foldBatch {
			t.Fatalf("%s: %d sidecar entries pending, want fewer than %d", step, pending, foldBatch)
		}
		// The windows at odd positions fold blocks from a sealed sidecar, a
		// partial one and pend, and, when cheap is set, must read far fewer
		// bytes than Range.
		count := counters(l)
		for i, w := range [][2]int64{
			{math.MinInt64, math.MaxInt64}, {blockRecords / 2, n - blockRecords/2},
			{100*blockRecords - 3, 200*blockRecords + 900}, {230 * blockRecords, n},
			{n - 300, n}, {240*blockRecords + 5, 249 * blockRecords},
		} {
			before := count("read_bytes")
			got, err := l.Aggregate(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			folded := count("read_bytes") - before
			checkFold(t, step, w[0], w[1], got, foldRange(t, l, w[0], w[1]))
			if scanned := count("read_bytes") - before - folded; cheap && i%2 == 1 && 4*folded > scanned {
				t.Fatalf("%s: Aggregate(%d, %d) read %d bytes, Range %d: want 4x fewer", step, w[0], w[1], folded, scanned)
			}
		}
	}
	check(l, "live", true)

	side, err := os.ReadFile(filepath.Join(dir, indexName(2)))
	if err != nil || len(side) != idxHeaderSize+foldBatch*idxEntrySize || binary.LittleEndian.Uint32(side) != 0 {
		t.Fatalf("active segment's partial sidecar: %d bytes (err %v), want a zero header and %d entries", len(side), err, foldBatch)
	}
	crashed, err := Open(copyDir(t, dir), opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := counters(crashed)("index_rebuilds"); n != 1 {
		t.Fatalf("crash copy rebuilt %d sidecars, want the partial one", n)
	}
	check(crashed, "crash copy", true)
	crashed.Close()

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := counters(l)("index_rebuilds"); n != 0 {
		t.Fatalf("reopen rebuilt %d sidecars, want none", n)
	}
	check(l, "reopened", true)

	// A sidecar whose entries change under the log is not trusted: here
	// each entry takes its successor's bytes, the entries read back miss
	// the resident seek points, and the blocks are decoded instead.
	side, err = os.ReadFile(filepath.Join(dir, indexName(0)))
	if err != nil {
		t.Fatal(err)
	}
	entries := side[idxHeaderSize : len(side)-4]
	copy(entries, entries[idxEntrySize:])
	if err := os.WriteFile(filepath.Join(dir, indexName(0)), side, 0o644); err != nil {
		t.Fatal(err)
	}
	check(l, "sidecar shifted", false)
}

// TestFailedSpillDropsFolds: once a batch of block entries fails to reach
// the active segment's sidecar, the segment keeps no folds, even if later
// writes to the sidecar would succeed, and its seal indexes the file afresh
// instead of sealing a sidecar with a hole in it.
func TestFailedSpillDropsFolds(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := int64(0)
	batch := func() {
		for range foldBatch * blockRecords {
			ts++
			if err := l.Append(telemetry.NewFact("m", ts, float64(ts%13))); err != nil {
				t.Fatal(err)
			}
		}
	}
	side := filepath.Join(dir, indexName(0))
	batch()
	// A directory in the sidecar's place fails the next batch's write; the
	// batch after it would be written once the path is clear.
	if err := os.Remove(side); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(side, 0o755); err != nil {
		t.Fatal(err)
	}
	batch()
	if err := os.Remove(side); err != nil {
		t.Fatal(err)
	}
	batch()
	l.mu.Lock()
	folded := l.active.folded
	l.mu.Unlock()
	if folded {
		t.Fatal("active segment kept its folds after a failed sidecar write")
	}
	got, err := l.Aggregate(blockRecords, ts-blockRecords)
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, "live", blockRecords, ts-blockRecords, got, foldRange(t, l, blockRecords, ts-blockRecords))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := len(rangeAll(t, l, math.MinInt64, math.MaxInt64)); n != int(ts) {
		t.Fatalf("reopened log holds %d tuples, want %d", n, ts)
	}
	for _, w := range [][2]int64{{math.MinInt64, math.MaxInt64}, {blockRecords + 7, ts - blockRecords}} {
		got, err := l.Aggregate(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		checkFold(t, "reopened", w[0], w[1], got, foldRange(t, l, w[0], w[1]))
	}
}
