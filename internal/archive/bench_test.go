package archive

import (
	"io/fs"
	"path/filepath"
	"strconv"
	"testing"

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
