// Package archive implements the per-vertex Archiver of SCoRe: an
// append-only log that persists Information tuples evicted from a vertex's
// in-memory queue. The Query Executor falls back to the persisted log for
// entries no longer held in memory.
//
// The log is tiered. The write path appends fixed-framing raw records (the
// CRC-guarded binary encoding from package telemetry) into size-capped
// segment files. Sealed segments are rewritten by the background compactor
// (see compact.go) into Gorilla-compressed block files (see block.go), and —
// under a Retention policy — downsampled into 10-second and 1-minute rollup
// tiers before finally aging out. Replay and Range stream all tiers, oldest
// tier first, behind the same API, so callers never see the encoding. Every
// sealed file carries a sparse timestamp index sidecar (see index.go) so
// timestamp-bounded reads seek instead of replaying the world.
package archive

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// DefaultSegmentBytes is the size threshold after which a new segment file is
// started.
const DefaultSegmentBytes = 4 << 20

// Archive tiers: full-resolution data, then progressively coarser rollups.
const (
	TierRaw = 0 // full resolution (raw records or compressed blocks)
	Tier10s = 1 // 10-second rollups
	Tier1m  = 2 // 1-minute rollups

	numTiers = 3
)

// segRef identifies one on-disk data file of the log.
type segRef struct {
	tier       int
	index      int
	compressed bool // block encoding (.blk) instead of raw records (.log)
}

// segKey indexes the in-memory sidecar map; the encoding is not part of the
// identity — a segment keeps its key when compaction rewrites it.
type segKey struct {
	tier  int
	index int
}

func (r segRef) key() segKey { return segKey{r.tier, r.index} }

// fileName returns the data file name for r.
func (r segRef) fileName() string {
	if r.tier == TierRaw {
		if r.compressed {
			return fmt.Sprintf("segment-%08d.blk", r.index)
		}
		return segmentName(r.index)
	}
	return fmt.Sprintf("rollup%d-%08d.blk", r.tier, r.index)
}

// sidecarName returns the index sidecar name for r. A raw segment and its
// compressed rewrite share one sidecar path: the index always describes
// whichever encoding is current.
func (r segRef) sidecarName() string {
	if r.tier == TierRaw {
		return indexName(r.index)
	}
	return fmt.Sprintf("rollup%d-%08d.idx", r.tier, r.index)
}

// parseRef decodes a data file name; ok is false for non-archive files.
func parseRef(name string) (segRef, bool) {
	parseIdx := func(s string) (int, bool) {
		i, err := strconv.Atoi(s)
		return i, err == nil
	}
	switch {
	case strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".log"):
		if i, ok := parseIdx(strings.TrimSuffix(strings.TrimPrefix(name, "segment-"), ".log")); ok {
			return segRef{tier: TierRaw, index: i}, true
		}
	case strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".blk"):
		if i, ok := parseIdx(strings.TrimSuffix(strings.TrimPrefix(name, "segment-"), ".blk")); ok {
			return segRef{tier: TierRaw, index: i, compressed: true}, true
		}
	case strings.HasPrefix(name, "rollup1-") && strings.HasSuffix(name, ".blk"):
		if i, ok := parseIdx(strings.TrimSuffix(strings.TrimPrefix(name, "rollup1-"), ".blk")); ok {
			return segRef{tier: Tier10s, index: i, compressed: true}, true
		}
	case strings.HasPrefix(name, "rollup2-") && strings.HasSuffix(name, ".blk"):
		if i, ok := parseIdx(strings.TrimSuffix(strings.TrimPrefix(name, "rollup2-"), ".blk")); ok {
			return segRef{tier: Tier1m, index: i, compressed: true}, true
		}
	}
	return segRef{}, false
}

// Log is an append-only archive of Information tuples for one vertex. It is
// safe for concurrent use.
type Log struct {
	mu sync.Mutex
	// compactMu serializes compaction (which rewrites and removes files)
	// against whole-log reads: Replay/Range hold it shared for the duration
	// of a scan, Compact holds it exclusively. Callbacks passed to
	// Replay/Range must therefore not call Compact.
	compactMu    sync.RWMutex
	dir          string
	segmentBytes int64
	cur          *os.File
	curW         *bufio.Writer
	enc          []byte // Append's encoding of the record it is writing
	curSize      int64
	curIndex     int
	// flushed is how much of the active segment is known to be in the file:
	// curSize as of the last Flush. (bufio may have written more on its own;
	// a reader that stops here never asks the file for bytes it lacks.)
	flushed int64
	// rd is the shared read handle of the active segment, nil until a Range
	// first reaches into the segment — see segReader for who closes it.
	rd *segReader
	// files is the data-file table Range walks: scanRefs' listing joined
	// with idx. It is nil until a Range needs it and dropped — under mu, and
	// under compactMu held exclusively when files go away — wherever a data
	// file is created or removed or idx changes: openSegment, sealLocked,
	// Compact. scanRefs stays the truth everywhere else.
	files    []fileEntry
	appended uint64
	closed   bool
	// wedged records a seal/rotate failure that left the active writer
	// unusable (closed or in an unknown state). While set, Append first
	// tries to recover by opening a fresh segment — the log fails closed
	// instead of silently buffering into a dead file descriptor.
	wedged error

	idx         map[segKey]*segIndex // sealed-file indexes, all tiers
	active      *segIndex            // incrementally-built index of the open segment
	idxRebuilds uint64               // sidecars Open rebuilt, held for Instrument

	// Optional obs instruments (nil-safe no-ops when not instrumented): the
	// only home of every count but appended.
	obsAppends      *obs.Counter
	obsRotations    *obs.Counter
	obsCorrupt      *obs.Counter
	obsReadBytes    *obs.Counter
	obsRebuilds     *obs.Counter
	obsSegSkipped   *obs.Counter
	obsCompactRuns  *obs.Counter
	obsCompressed   *obs.Counter
	obsDroppedFiles *obs.Counter
	obsTierBytes    [numTiers]*obs.Gauge
}

// fileEntry is one row of the cached data-file table: a file and its sealed
// index (nil: unindexed, must be scanned whole). Rows are immutable.
type fileEntry struct {
	ref segRef
	si  *segIndex
}

// segReader is the read handle of the active segment, shared by every Range
// that reads it. Ownership is counted: the Log holds one reference from the
// open until the segment stops being active (sealLocked, or openSegment
// after a wedge), a Range takes one under mu while it plans and returns it
// after its last read, and the file closes with the last reference — so a
// rotation under a reader never closes the file mid-ReadAt.
type segReader struct {
	f    *os.File
	refs atomic.Int32
}

func (r *segReader) release() {
	if r.refs.Add(-1) == 0 {
		r.f.Close()
	}
}

// readBufs recycles Range's read buffers (a deep query reads ~27 KB).
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// Options configures a Log.
type Options struct {
	// SegmentBytes caps each segment file; zero means DefaultSegmentBytes.
	SegmentBytes int64
}

// Open creates or reopens a Log rooted at dir. Existing segments are kept and
// appends continue in a fresh segment after the highest existing index. Every
// existing file's index sidecar is loaded; missing, corrupt, or stale
// sidecars are rebuilt from the data (crash safety: the sidecar is a pure
// accelerator, never trusted over the log). An interrupted compaction is
// rolled forward or back from its journal before anything is read.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	l := &Log{dir: dir, segmentBytes: opts.SegmentBytes, idx: make(map[segKey]*segIndex)}
	if err := l.recoverCompaction(); err != nil {
		return nil, err
	}
	refs, err := l.scanRefs()
	if err != nil {
		return nil, err
	}
	next := 0
	for _, r := range refs {
		path := filepath.Join(dir, r.fileName())
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
		side := filepath.Join(dir, r.sidecarName())
		si, err := loadSidecar(side, st.Size())
		if err != nil {
			if r.compressed {
				si, err = buildBlockIndex(path)
			} else {
				si, err = buildSegIndex(path)
			}
			if err != nil {
				return nil, err
			}
			if err := writeSidecar(side, si); err != nil {
				return nil, err
			}
			l.idxRebuilds++
		}
		l.idx[r.key()] = si
		if r.tier == TierRaw && r.index >= next {
			next = r.index + 1
		}
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	return l, nil
}

func segmentName(i int) string { return fmt.Sprintf("segment-%08d.log", i) }

// scanRefs lists every data file of the log in replay order: coarsest tier
// first (1m rollups, then 10s, then full resolution), ascending index within
// a tier. When a raw segment and its compressed rewrite both exist (a crash
// between compaction's rename and source removal), the compressed file wins —
// the rename is atomic, so it is complete.
func (l *Log) scanRefs() ([]segRef, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	byKey := make(map[segKey]segRef)
	for _, e := range entries {
		r, ok := parseRef(e.Name())
		if !ok {
			continue
		}
		if prev, dup := byKey[r.key()]; dup && prev.compressed {
			continue // compressed rewrite shadows the raw original
		}
		byKey[r.key()] = r
	}
	out := make([]segRef, 0, len(byKey))
	for _, r := range byKey {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tier != out[j].tier {
			return out[i].tier > out[j].tier // oldest data lives in the highest tier
		}
		return out[i].index < out[j].index
	})
	return out, nil
}

func (l *Log) openSegment(i int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("archive: %w", err)
	}
	l.cur = f
	l.curW = bufio.NewWriter(f)
	l.curSize = st.Size()
	l.flushed = l.curSize
	l.curIndex = i
	l.active = &segIndex{size: l.curSize, sorted: true}
	l.dropReadStateLocked()
	return nil
}

// dropReadStateLocked forgets what Range caches about the directory: the
// file table, and the Log's reference on the active segment's read handle.
func (l *Log) dropReadStateLocked() {
	l.files = nil
	if l.rd != nil {
		l.rd.release()
		l.rd = nil
	}
}

// flushLocked writes buffered appends to the active segment's file.
func (l *Log) flushLocked() error {
	if err := l.curW.Flush(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	l.flushed = l.curSize
	return nil
}

// recoverLocked re-arms a wedged log: the failed active segment is abandoned
// (whatever prefix reached disk stays replayable; its sidecar is rebuilt on
// the next Open) and appends continue in a fresh segment after the highest
// on-disk index.
func (l *Log) recoverLocked() error {
	refs, err := l.scanRefs()
	if err != nil {
		return err
	}
	next := l.curIndex + 1
	for _, r := range refs {
		if r.tier == TierRaw && r.index >= next {
			next = r.index + 1
		}
	}
	if err := l.openSegment(next); err != nil {
		return err
	}
	l.wedged = nil
	return nil
}

// Append persists one tuple. It buffers; call Sync to force bytes to the OS.
// After a seal or rotate failure the log is wedged: Append first tries to
// re-open a fresh active segment and fails with the original error until
// that succeeds, so writes are never silently buffered into a dead file.
func (l *Log) Append(info telemetry.Info) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("archive: log closed")
	}
	if l.wedged != nil {
		if err := l.recoverLocked(); err != nil {
			return fmt.Errorf("archive: log wedged (%v); recovery failed: %w", l.wedged, err)
		}
	}
	b, err := info.AppendBinary(l.enc[:0])
	if err != nil {
		return err
	}
	l.enc = b
	if l.curSize+int64(len(b)) > l.segmentBytes && l.curSize > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	off := l.curSize
	if _, err := l.curW.Write(b); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	l.curSize += int64(len(b))
	l.active.note(off, info.Timestamp, l.curSize)
	l.appended++
	l.obsAppends.Inc()
	return nil
}

// sealLocked flushes and closes the active segment, persists its index
// sidecar, and promotes the in-memory index to the sealed map. Any failure
// wedges the log: the writer is known-dead (or in an unknown state), so
// subsequent appends must re-open a segment instead of reusing it. A flush
// failure also invalidates the in-memory index (buffered records never
// reached disk), so it is not promoted — readers fall back to a full scan of
// whatever prefix is on disk.
func (l *Log) sealLocked() error {
	l.dropReadStateLocked()
	ferr := l.curW.Flush()
	cerr := l.cur.Close()
	if ferr != nil {
		l.wedged = fmt.Errorf("archive: seal flush: %w", ferr)
		return l.wedged
	}
	l.flushed = l.curSize
	if cerr != nil {
		l.wedged = fmt.Errorf("archive: seal close: %w", cerr)
		return l.wedged
	}
	// The data is durable and complete from here on; the sidecar is a pure
	// accelerator (rebuilt on Open when missing), so its write failing still
	// promotes the in-memory index — but the file is closed, so the log is
	// wedged until a fresh segment opens.
	l.idx[segKey{TierRaw, l.curIndex}] = l.active
	if err := writeSidecar(filepath.Join(l.dir, indexName(l.curIndex)), l.active); err != nil {
		l.wedged = fmt.Errorf("archive: seal sidecar: %w", err)
		return l.wedged
	}
	return nil
}

func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	l.obsRotations.Inc()
	if err := l.openSegment(l.curIndex + 1); err != nil {
		l.wedged = err
		return err
	}
	return nil
}

// Instrument registers the log's instruments on r, labelled by name (usually
// the vertex metric): archive_appends_total, archive_rotations_total,
// archive_corrupt_records_total, archive_read_bytes_total,
// archive_index_rebuilds_total, archive_range_segments_skipped_total,
// archive_compaction_runs_total, archive_compressed_bytes_total,
// archive_retention_dropped_files_total, and the per-tier
// archive_rollup_tier_bytes gauges. The sidecar rebuilds of Open, which runs
// before anything can be instrumented, are folded in; every other event counts
// from here on.
func (l *Log) Instrument(r *obs.Registry, name string) {
	l.mu.Lock()
	l.obsAppends = r.Counter(obs.Name("archive_appends_total", "log", name))
	l.obsRotations = r.Counter(obs.Name("archive_rotations_total", "log", name))
	l.obsCorrupt = r.Counter(obs.Name("archive_corrupt_records_total", "log", name))
	l.obsReadBytes = r.Counter(obs.Name("archive_read_bytes_total", "log", name))
	l.obsRebuilds = r.Counter(obs.Name("archive_index_rebuilds_total", "log", name))
	l.obsSegSkipped = r.Counter(obs.Name("archive_range_segments_skipped_total", "log", name))
	l.obsCompactRuns = r.Counter(obs.Name("archive_compaction_runs_total", "log", name))
	l.obsCompressed = r.Counter(obs.Name("archive_compressed_bytes_total", "log", name))
	l.obsDroppedFiles = r.Counter(obs.Name("archive_retention_dropped_files_total", "log", name))
	for t := 0; t < numTiers; t++ {
		l.obsTierBytes[t] = r.Gauge(obs.Name("archive_rollup_tier_bytes", "log", name, "tier", tierLabel(t)))
	}
	l.obsRebuilds.Add(l.idxRebuilds)
	l.mu.Unlock()
	l.updateTierGauges()
}

// tierLabel names a tier for metric labels and CLI output.
func tierLabel(t int) string {
	switch t {
	case TierRaw:
		return "raw"
	case Tier10s:
		return "10s"
	default:
		return "1m"
	}
}

// updateTierGauges refreshes the per-tier byte gauges from the directory.
func (l *Log) updateTierGauges() {
	var bytes [numTiers]int64
	refs, err := l.scanRefs()
	if err != nil {
		return
	}
	for _, r := range refs {
		if st, err := os.Stat(filepath.Join(l.dir, r.fileName())); err == nil {
			bytes[r.tier] += st.Size()
		}
	}
	for t := 0; t < numTiers; t++ {
		l.obsTierBytes[t].Set(float64(bytes[t]))
	}
}

// Appended returns the number of tuples appended since Open.
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Sync flushes buffered appends to the OS.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if l.wedged != nil {
		return fmt.Errorf("archive: log wedged: %w", l.wedged)
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	return l.cur.Sync()
}

// Close flushes and closes the active segment, sealing its index sidecar so
// the next Open needs no rebuild. A wedged log's active writer is already
// closed, so Close does not touch it again (no double close); it reports the
// wedging error once more instead.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.wedged != nil {
		l.dropReadStateLocked()
		return fmt.Errorf("archive: closed after seal failure: %w", l.wedged)
	}
	return l.sealLocked()
}

// Replay streams every archived tuple, coarsest tier first (1m rollups, 10s
// rollups, then full resolution), oldest first within a tier, to fn. Replay
// stops at the first error from fn. Corruption handling distinguishes two
// cases: a decode failure at the tail of the highest raw (active) segment is
// a torn write from a crash and silently terminates that segment's replay;
// corruption anywhere else — mid-segment, in an earlier segment, or in a
// compressed block — is skipped (resynchronizing on the CRC framing) and
// counted, so one bad record no longer silently truncates replay of
// everything after it. Replay flushes pending appends first so a Log can
// replay its own writes.
func (l *Log) Replay(fn func(telemetry.Info) error) error {
	l.compactMu.RLock()
	defer l.compactMu.RUnlock()
	l.mu.Lock()
	if !l.closed && l.wedged == nil {
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	refs, err := l.scanRefs()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	lastRaw := -1
	for _, r := range refs {
		if r.tier == TierRaw && !r.compressed && r.index > lastRaw {
			lastRaw = r.index
		}
	}
	for _, r := range refs {
		path := filepath.Join(l.dir, r.fileName())
		var corrupt int
		var bytes int64
		if r.compressed {
			corrupt, bytes, err = replayBlockFile(path, fn)
		} else {
			corrupt, bytes, err = replayFile(path, r.index == lastRaw, fn)
		}
		l.account(corrupt, bytes, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// account counts per-segment read statistics.
func (l *Log) account(corrupt int, bytes int64, skipped int) {
	l.obsCorrupt.Add(uint64(corrupt))
	l.obsReadBytes.Add(uint64(bytes))
	l.obsSegSkipped.Add(uint64(skipped))
}

// Range streams tuples whose Timestamp lies in [from, to], coarsest tier
// first, using the sparse per-file indexes: files whose [firstTS, lastTS]
// envelope misses the window are skipped without touching the file, and
// within a sorted file the read starts at the sparse offset preceding `from`
// and stops at the first sparse offset past `to` — instead of replaying
// every file from byte zero. Unindexed or unsorted files fall back to a full
// filtered scan, so Range never misses records the index cannot vouch for.
//
// A Range does no file-system work it can know the answer to: the file table
// is cached (see Log.files), the active segment is read through one shared
// handle up to its flushed size, and the writer is flushed only when the
// window reaches into the buffered tail.
func (l *Log) Range(from, to int64, fn func(telemetry.Info) error) error {
	if from > to {
		return nil
	}
	l.compactMu.RLock()
	defer l.compactMu.RUnlock()
	l.mu.Lock()
	files, err := l.filesLocked()
	if err != nil {
		l.mu.Unlock()
		return err
	}
	var (
		corrupt, skipped int
		bytes            int64
		act              segIndex   // the active segment's index as of now
		rd               *segReader // set when the active segment must be read
		limit            int64
	)
	// The active segment carries the highest raw index, so it lists last.
	if n := len(files); n > 0 && !l.closed && files[n-1].ref == (segRef{tier: TierRaw, index: l.curIndex}) {
		files = files[:n-1]
		if !l.active.covers(from, to) {
			skipped++
		} else if rd, err = l.activeReaderLocked(to); err != nil {
			l.mu.Unlock()
			return err
		} else {
			defer rd.release()
			// The header copy is safe to read after unlock: appends beyond
			// len are invisible, reallocation leaves our view intact.
			act, limit = *l.active, l.flushed
		}
	}
	l.mu.Unlock()
	defer func() { l.account(corrupt, bytes, skipped) }()

	for _, p := range files {
		if p.si != nil && !p.si.covers(from, to) {
			skipped++
			continue
		}
		c, b, err := l.scanFile(p, from, to, fn)
		corrupt, bytes = corrupt+c, bytes+b
		if err != nil {
			return err
		}
	}
	if rd != nil {
		c, b, err := scanWindow(rd.f, limit, &act, false, true, from, to, fn)
		corrupt, bytes = corrupt+c, bytes+b
		return err
	}
	return nil
}

// filesLocked returns the data-file table, listing the directory only when
// it was dropped since the last Range.
func (l *Log) filesLocked() ([]fileEntry, error) {
	if l.files == nil {
		refs, err := l.scanRefs()
		if err != nil {
			return nil, err
		}
		l.files = make([]fileEntry, len(refs))
		for i, r := range refs {
			l.files[i] = fileEntry{ref: r, si: l.idx[r.key()]}
		}
	}
	return l.files, nil
}

// activeReaderLocked prepares a read of the active segment for a window
// ending at `to`: it flushes the writer if the window reaches past what the
// file is known to hold (an unsorted segment must be scanned to its end),
// opens the shared read handle on first use, and returns it with a reference
// taken for the caller.
func (l *Log) activeReaderLocked(to int64) (*segReader, error) {
	if l.wedged == nil && l.active.seekEnd(to, l.curSize) > l.flushed {
		if err := l.flushLocked(); err != nil {
			return nil, err
		}
	}
	if l.rd == nil {
		f, err := os.Open(filepath.Join(l.dir, segmentName(l.curIndex)))
		if err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
		l.rd = &segReader{f: f}
		l.rd.refs.Store(1)
	}
	l.rd.refs.Add(1)
	return l.rd, nil
}

// scanFile streams the in-window records of one sealed file.
func (l *Log) scanFile(p fileEntry, from, to int64, fn func(telemetry.Info) error) (corrupt int, bytes int64, err error) {
	f, err := os.Open(filepath.Join(l.dir, p.ref.fileName()))
	if err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	return scanWindow(f, st.Size(), p.si, p.ref.compressed, false, from, to, fn)
}

// scanWindow reads the byte range of f's first size bytes that si says can
// hold [from, to] into a pooled buffer and streams the in-window records out
// of it. A compressed file's sparse index is block-granular (one entry per
// block, keyed by the block's first timestamp), so its range starts on a
// block boundary.
func scanWindow(f *os.File, size int64, si *segIndex, compressed, active bool, from, to int64, fn func(telemetry.Info) error) (corrupt int, bytes int64, err error) {
	start := si.seek(from)
	end := si.seekEnd(to, size)
	if end > size {
		end = size
	}
	if start >= end {
		return 0, 0, nil
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	if int64(cap(*bp)) < end-start {
		*bp = make([]byte, end-start)
	}
	data := (*bp)[:end-start]
	if _, err := f.ReadAt(data, start); err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	sorted := si != nil && si.sorted
	if compressed {
		corrupt, err = scanBlocks(data, sorted, from, to, fn)
	} else {
		// A trailing undecodable run only counts as a torn tail when the
		// read window extends to the end of the active segment.
		corrupt, err = scanRecords(data, sorted, active && end == size, from, to, fn)
	}
	return corrupt, end - start, err
}

// scanRecords streams the in-window raw records of data, decoding in place
// over one Info: the decoder keeps an equal metric name, so a scan allocates
// the name once, not once per record. A record that fails its CRC is skipped
// by resynchronizing on the next one that passes, and counted; an
// undecodable run with nothing after it is a torn write — silent — only
// where the caller says the data ends at the active segment's tail.
func scanRecords(data []byte, sorted, tornTailOK bool, from, to int64, fn func(telemetry.Info) error) (corrupt int, err error) {
	var info telemetry.Info
	for len(data) > 0 {
		if info.UnmarshalBinary(data) != nil {
			skip := resync(data[1:])
			if skip < 0 {
				if tornTailOK {
					return corrupt, nil
				}
				return corrupt + 1, nil
			}
			corrupt++
			data = data[1+skip:]
			continue
		}
		data = data[info.EncodedSize():]
		if info.Timestamp > to {
			if sorted {
				return corrupt, nil
			}
			continue
		}
		if info.Timestamp < from {
			continue
		}
		if err := fn(info); err != nil {
			return corrupt, err
		}
	}
	return corrupt, nil
}

// scanBlocks streams the in-window records of data's blocks.
func scanBlocks(data []byte, sorted bool, from, to int64, fn func(telemetry.Info) error) (corrupt int, err error) {
	for len(data) > 0 {
		infos, n, derr := decodeBlock(data)
		if derr != nil {
			skip := resyncBlock(data[1:])
			if skip < 0 {
				return corrupt + 1, nil
			}
			corrupt++
			data = data[1+skip:]
			continue
		}
		data = data[n:]
		for _, info := range infos {
			if info.Timestamp > to {
				if sorted {
					return corrupt, nil
				}
				continue
			}
			if info.Timestamp < from {
				continue
			}
			if err := fn(info); err != nil {
				return corrupt, err
			}
		}
	}
	return corrupt, nil
}

// replayFile replays one raw segment, returning how many corrupt records
// were skipped and how many bytes were read. Only the tail of the active
// segment may be treated as a torn write (uncounted); any other decode
// failure resynchronizes on the next CRC-valid record and is counted.
func replayFile(path string, active bool, fn func(telemetry.Info) error) (int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	corrupt, err := scanRecords(data, false, active, math.MinInt64, math.MaxInt64, fn)
	return corrupt, int64(len(data)), err
}

// replayBlockFile replays one compressed file block by block. Compressed
// files are only ever produced whole (tmp + rename), so an undecodable
// region is always counted corruption, never a tolerated torn tail.
func replayBlockFile(path string, fn func(telemetry.Info) error) (int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	corrupt, err := scanBlocks(data, false, math.MinInt64, math.MaxInt64, fn)
	return corrupt, int64(len(data)), err
}

// resync scans forward for the next offset at which a record decodes. The
// CRC32 framing makes a false positive vanishingly unlikely (~2^-32 per
// candidate offset).
func resync(b []byte) int {
	for off := 0; off < len(b); off++ {
		if _, _, err := telemetry.DecodeInfo(b[off:]); err == nil {
			return off
		}
	}
	return -1
}
