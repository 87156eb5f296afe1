package archive

import (
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Benchmarks for tail reads over a many-segment block archive, with the
// bytes actually read (archive_read_bytes_total) as the win. The footprint
// gate is TestBlockCompressionRatio, the on-disk bytes per append
// BenchmarkAppend's diskbytes/op. The archive beside live writes is the
// archive.* rows of a traced query-mixed run of the pipeline benchmark.

// benchCompactedLog builds a many-segment archive from the synthetic NVMe
// corpus and runs a compaction pass over it.
func benchCompactedLog(b *testing.B, records int) (*Log, []telemetry.Info, func(string) uint64) {
	b.Helper()
	infos := syntheticCorpus(records)
	l, err := Open(b.TempDir(), Options{SegmentBytes: 16 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	for _, in := range infos {
		if err := l.Append(in); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := l.Compact(1<<62, Retention{}); err != nil {
		b.Fatal(err)
	}
	return l, infos, counters(l)
}

// BenchmarkArchiveRangeCompressedTail reads a 5-record window at the tail of
// a compacted archive through the block-granular sidecar index.
func BenchmarkArchiveRangeCompressedTail(b *testing.B) {
	l, infos, counter := benchCompactedLog(b, 16384)
	last := infos[len(infos)-1].Timestamp
	from := infos[len(infos)-5].Timestamp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := l.Range(from, last, func(telemetry.Info) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != 5 {
			b.Fatalf("count=%d", count)
		}
	}
	b.ReportMetric(float64(counter("read_bytes"))/float64(b.N), "readbytes/op")
}

// BenchmarkArchiveReplayCompressed is the tail-read baseline: decode the
// whole compacted archive and filter to the same 5-record window.
func BenchmarkArchiveReplayCompressed(b *testing.B) {
	l, infos, counter := benchCompactedLog(b, 16384)
	last := infos[len(infos)-1].Timestamp
	from := infos[len(infos)-5].Timestamp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := l.Replay(func(in telemetry.Info) error {
			if in.Timestamp >= from && in.Timestamp <= last {
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

// BenchmarkOpenFresh registers one metric's log the way a service does at
// start: Open a fresh directory, Instrument, Close. files/op counts the files
// left behind — none, since a segment's file comes with its first block.
func BenchmarkOpenFresh(b *testing.B) {
	root := b.TempDir()
	reg := obs.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(filepath.Join(root, strconv.Itoa(i)), Options{})
		if err != nil {
			b.Fatal(err)
		}
		l.Instrument(reg, "fresh")
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	files := 0
	if err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files++
		}
		return err
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(files)/float64(b.N), "files/op")
}

// BenchmarkArchiveAggregate folds an hour-long window of a 2^20-tuple log
// (one tuple every 10 ms, so ~2.9 hours over default-sized segments) two
// ways: Aggregate, which folds the blocks the window covers whole from the
// index and decodes only the edge blocks, and a fold over Range, which
// decodes every block in the window. readbytes/op is what each reads from
// the files; Aggregate must read at least 10x fewer.
func BenchmarkArchiveAggregate(b *testing.B) {
	const n, step = 1 << 20, int64(10 * time.Millisecond)
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	rng := rand.New(rand.NewSource(7))
	v := 3_840_755_982_336.0
	for i := range int64(n) {
		if rng.Intn(10) == 0 {
			v -= float64(rng.Intn(64)) * 1048576.0
		}
		if err := l.Append(telemetry.NewFact("node01.nvme0.capacity_total", i*step, v)); err != nil {
			b.Fatal(err)
		}
	}
	counter := counters(l)
	hour := int64(time.Hour)
	var windows []int64 // window starts spread over the log, none block-aligned
	for k := range int64(16) {
		windows = append(windows, k*(n*step-hour)/16+step/2)
	}
	var perOp [2]float64
	for i, mode := range []string{"aggregate", "range-fold"} {
		b.Run(mode, func(b *testing.B) {
			before := counter("read_bytes")
			for j := 0; j < b.N; j++ {
				from := windows[j%len(windows)]
				var s telemetry.Summary
				if i == 0 {
					s, err = l.Aggregate(from, from+hour)
				} else {
					err = l.Range(from, from+hour, func(in telemetry.Info) error { s.Add(in); return nil })
				}
				if err != nil || s.Count != hour/step {
					b.Fatalf("%s [%d, %d]: %d tuples (err %v), want %d", mode, from, from+hour, s.Count, err, hour/step)
				}
			}
			perOp[i] = float64(counter("read_bytes")-before) / float64(b.N)
			b.ReportMetric(perOp[i], "readbytes/op")
		})
	}
	if perOp[1] > 0 && 10*perOp[0] > perOp[1] {
		b.Fatalf("Aggregate reads %.0f bytes per hour-long window, a fold over Range %.0f: want >= 10x fewer", perOp[0], perOp[1])
	}
}
