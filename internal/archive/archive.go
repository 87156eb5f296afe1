// Package archive implements the per-vertex Archiver of SCoRe: an
// append-only log that persists Information tuples evicted from a vertex's
// in-memory queue. The Query Executor falls back to the persisted log for
// entries no longer held in memory.
//
// The log has one on-disk encoding, Gorilla-compressed blocks (package
// telemetry/block), and is tiered. The write path encodes each tuple into
// the open block of the active segment and writes the block as one frame
// when it fills, on Sync and when the segment is sealed at its size cap. Under a
// Retention policy the background compactor (see compact.go) downsamples
// sealed segments into 10-second and 1-minute rollup tiers before they age
// out. Range streams all tiers, oldest tier first, behind one API, so callers
// never see the tiers. Every sealed file carries a sparse timestamp index
// sidecar (see index.go) so timestamp-bounded reads seek instead of decoding
// the world, and a raw file's sidecar records the fold of each block and of
// the file, so Aggregate takes the files and blocks a window covers whole
// from their folds instead of decoding them.
package archive

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/telemetry/block"
)

// DefaultSegmentBytes is the size threshold after which a new segment file is
// started.
const DefaultSegmentBytes = 4 << 20

// blockRecords is how many tuples the open block holds before it is written:
// a quarter of block.MaxRecords, so an open block pins a quarter of the
// memory, a crash loses at most blockRecords-1 tuples, and an aggregate
// decodes at most two such blocks per file (see Aggregate).
const blockRecords = block.MaxRecords / 4

// seekStride is how many blocks of a raw file one resident seek point spans
// (see segIndex.thin): one per block.MaxRecords tuples.
const seekStride = block.MaxRecords / blockRecords

// foldBatch is how many blocks' sidecar entries the active segment holds in
// memory before it writes them to its sidecar.
const foldBatch = 32

// Archive tiers: full-resolution data, then progressively coarser rollups.
const (
	TierRaw = 0 // full resolution
	Tier10s = 1 // 10-second rollups
	Tier1m  = 2 // 1-minute rollups

	numTiers = 3
)

// segRef identifies one on-disk data file of the log, and keys its index.
type segRef struct {
	tier  int
	index int
}

// tierPrefix names each tier's files.
var tierPrefix = [numTiers]string{"segment", "rollup1", "rollup2"}

// TierNames names each tier in metric labels and on the gateway's retention
// report.
var TierNames = [numTiers]string{"raw", "10s", "1m"}

// fileName returns the data file name for r.
func (r segRef) fileName() string { return fmt.Sprintf("%s-%08d.blk", tierPrefix[r.tier], r.index) }

// sidecarName returns the index sidecar name for r.
func (r segRef) sidecarName() string { return fmt.Sprintf("%s-%08d.idx", tierPrefix[r.tier], r.index) }

// parseRef decodes a data file name; ok is false for non-archive files.
func parseRef(name string) (segRef, bool) {
	for t, p := range tierPrefix {
		s, ok := strings.CutPrefix(name, p+"-")
		if s, blk := strings.CutSuffix(s, ".blk"); ok && blk {
			if i, err := strconv.Atoi(s); err == nil {
				return segRef{tier: t, index: i}, true
			}
		}
	}
	return segRef{}, false
}

// Log is an append-only archive of Information tuples for one vertex. It is
// safe for concurrent use.
type Log struct {
	mu sync.Mutex
	// compactMu serializes compaction (which rewrites and removes files)
	// against whole-log reads: Range holds it shared for the duration of a
	// scan, Compact holds it exclusively. Callbacks passed to Range must
	// therefore not call Compact.
	compactMu    sync.RWMutex
	dir          string
	segmentBytes int64
	// cur is the active segment's file, nil until its first block is
	// written (see createLocked) and again once it is closed.
	cur      *os.File
	curIndex int
	// curBytes is how much the active segment holds as SegmentBytes counts
	// it: the sum of its tuples' Info.EncodedSize, whatever they take on disk.
	curBytes int64
	// open is the active segment's open block: the tuples appended since its
	// last frame was written, held encoded, and openFold their fold, which
	// becomes the block's index entry. A crash loses it; Sync and Close
	// write it.
	open     block.Writer
	openFold telemetry.Summary
	// pend holds the sidecar entries of the active segment's written blocks
	// that its partial sidecar does not hold yet (see spillLocked).
	pend []byte
	// rd is the shared read handle of the active segment, nil until a Range
	// first reaches into the segment — see segReader for who closes it.
	rd *segReader
	// files is the data-file table Range walks: scanRefs' listing joined
	// with idx. It is nil until a Range needs it and dropped — under mu, and
	// under compactMu held exclusively when files go away — wherever a data
	// file is created or removed or idx changes: createLocked, openSegment,
	// sealLocked, Compact. scanRefs stays the truth everywhere else.
	files    []fileEntry
	appended uint64
	closed   bool
	// wedged records a write, seal or rotate failure that left the active
	// file closed. While set, Append first tries to recover by opening a
	// fresh segment — the log fails closed instead of silently writing into
	// a dead file descriptor.
	wedged error

	idx map[segRef]*segIndex // sealed-file indexes, all tiers
	// active indexes the active segment: its written blocks as a sealed raw
	// file's resident index has them, and every appended tuple, the open
	// block's too, in its envelope.
	active      *segIndex
	idxRebuilds uint64 // sidecars Open rebuilt, held for Instrument

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

// Options configures a Log.
type Options struct {
	// SegmentBytes caps each segment, counted as the sum of its tuples'
	// Info.EncodedSize; zero means DefaultSegmentBytes.
	SegmentBytes int64
}

// Open creates or reopens a Log rooted at dir. Existing segments are kept and
// appends continue in a fresh segment after the highest existing index; its
// file, like every later segment's, is created by the segment's first block
// write, so opening and closing a log that receives nothing leaves the
// directory as it was. Open lists the directory once. Every existing file's
// index sidecar is loaded; missing, corrupt, or stale sidecars are rebuilt
// from the data (crash safety: the sidecar is a pure accelerator, never
// trusted over the log). An interrupted compaction is rolled forward or back
// from its journal before anything is read. A directory holding raw-record
// segments (`segment-*.log`, an earlier on-disk format) is refused.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	l := &Log{dir: dir, segmentBytes: opts.SegmentBytes, idx: make(map[segRef]*segIndex)}
	if err := l.recoverCompaction(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") { // an interrupted rollup, journal or sidecar write
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	refs, err := l.parseRefs(entries)
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
			if si, err = buildIndex(path, r.tier == TierRaw); err != nil {
				return nil, err
			}
			if err := writeSidecar(side, si.marshal(nil)); err != nil {
				return nil, err
			}
			l.idxRebuilds++
		}
		l.idx[r] = si
		if r.tier == TierRaw {
			si.thin()
			next = max(next, r.index+1)
		}
	}
	l.openSegment(next)
	return l, nil
}

// scanRefs lists every data file of the log in read order (see parseRefs).
func (l *Log) scanRefs() ([]segRef, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	return l.parseRefs(entries)
}

// parseRefs picks the data files out of a listing of the log's directory, in
// read order: coarsest tier first (1m rollups, then 10s, then full
// resolution), ascending index within a tier.
func (l *Log) parseRefs(entries []os.DirEntry) ([]segRef, error) {
	var out []segRef
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".log") {
			return nil, fmt.Errorf("archive: %s holds raw records, an on-disk format this version does not read", filepath.Join(l.dir, name))
		}
		if r, ok := parseRef(name); ok {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tier != out[j].tier {
			return out[i].tier > out[j].tier // oldest data lives in the highest tier
		}
		return out[i].index < out[j].index
	})
	return out, nil
}

// openSegment makes segment i the active one, with no file yet: createLocked
// makes it when the first block is written.
func (l *Log) openSegment(i int) {
	l.curIndex, l.curBytes = i, 0
	l.active, l.pend = &segIndex{folded: true}, l.pend[:0]
	l.dropReadStateLocked()
}

// createLocked creates the active segment's file. O_EXCL never reuses a file:
// when the index is taken, by another writer on the same directory say, the
// segment moves to the next free index.
func (l *Log) createLocked() error {
	for {
		f, err := os.OpenFile(filepath.Join(l.dir, segRef{TierRaw, l.curIndex}.fileName()), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			l.cur = f
			l.files = nil // the directory gained a data file
			return nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return fmt.Errorf("archive: %w", err)
		}
		l.curIndex++
	}
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

// recoverLocked re-arms a wedged log: the failed active segment is abandoned
// (whatever whole blocks reached disk stay readable; its sidecar is rebuilt
// on the next Open) and appends continue in a fresh segment after the
// highest on-disk index. Its file is created here, not at the first block,
// so a log stays wedged until the file system takes a file again.
func (l *Log) recoverLocked() error {
	refs, err := l.scanRefs()
	if err != nil {
		return err
	}
	next := l.curIndex + 1
	for _, r := range refs {
		if r.tier == TierRaw {
			next = max(next, r.index+1)
		}
	}
	l.openSegment(next)
	if err := l.createLocked(); err != nil {
		return err
	}
	l.wedged = nil
	return nil
}

// Append persists one tuple into the open block; the block reaches the file
// when it fills, on Sync, or when its segment is sealed. A tuple whose metric
// name is 64 KiB or longer, or whose Source is neither Measured nor
// Predicted, does not fit a block and is refused. After a write, seal or
// rotate failure the log is wedged: Append first tries to open a fresh
// active segment and fails with the original error until that succeeds, so
// writes never go into a dead file.
func (l *Log) Append(info telemetry.Info) error {
	if len(info.Metric) > math.MaxUint16 || info.Source > telemetry.Predicted {
		return fmt.Errorf("archive: tuple does not fit a block (metric %d bytes, source %d)", len(info.Metric), info.Source)
	}
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
	n := int64(info.EncodedSize())
	if l.curBytes+n > l.segmentBytes && l.curBytes > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.open.Add(info)
	l.openFold.Add(info)
	l.active.note(info.Timestamp)
	l.curBytes += n
	l.appended++
	l.obsAppends.Inc()
	if l.open.Len() == blockRecords {
		return l.writeBlockLocked()
	}
	return nil
}

// writeBlockLocked seals the open block into one frame, encoded into pooled
// scratch, and writes it to the active segment with a single Write, creating
// the segment's file first if this is its first block. A failed create or
// write loses the block (its frame may lie torn at the file's tail), closes
// the file and wedges the log.
func (l *Log) writeBlockLocked() error {
	if l.open.Len() == 0 {
		return nil
	}
	sc := getScanBuf()
	defer sc.release()
	sc.data = l.open.AppendFrame(sc.data[:0], TierRaw)
	fold := l.openFold
	l.open.Reset()
	l.openFold = telemetry.Summary{}
	if l.cur == nil {
		if err := l.createLocked(); err != nil {
			l.wedged = err
			return err
		}
	}
	if _, err := l.cur.Write(sc.data); err != nil {
		l.cur.Close()
		l.cur = nil
		l.wedged = fmt.Errorf("archive: seal flush: %w", err)
		return l.wedged
	}
	a := l.active
	if a.blocks%seekStride == 0 {
		a.offs = append(a.offs, idxEntry{a.size, fold.First})
	}
	if a.blocks++; a.folded {
		a.total.Merge(fold)
		if l.pend = appendEntry(l.pend, a.size, fold, true); len(l.pend) == foldBatch*idxEntrySize {
			l.spillLocked()
		}
	}
	a.size += int64(len(sc.data))
	return nil
}

// spillLocked writes the pending entries to the active segment's partial
// sidecar, created by the first batch, at the offsets the sealed sidecar
// gives them. A failure drops the segment's block folds: Aggregate decodes
// its blocks, and the seal indexes the file afresh.
func (l *Log) spillLocked() {
	at, flag := l.active.blocks*idxEntrySize-len(l.pend), os.O_CREATE|os.O_WRONLY
	if at == 0 {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segRef{TierRaw, l.curIndex}.sidecarName()), flag, 0o644)
	if err == nil {
		_, err = f.WriteAt(l.pend, int64(idxHeaderSize+at))
		err = errors.Join(err, f.Close())
	}
	l.active.folded = l.active.folded && err == nil
	l.pend = l.pend[:0]
}

// sealLocked writes the open block, closes the active segment, persists its
// index sidecar, and promotes its index to the sealed map; a segment that
// never had a block written has no file and needs none of that. Any failure
// wedges the log: the file is closed (or in an unknown state), so subsequent
// appends must open a segment instead of reusing it. A failed block write
// also leaves the index unpromoted — readers fall back to a full scan of
// whatever reached disk.
func (l *Log) sealLocked() error {
	l.dropReadStateLocked()
	if err := l.writeBlockLocked(); err != nil {
		return err
	}
	if l.cur == nil {
		return nil
	}
	err := l.cur.Close()
	l.cur = nil
	if err != nil {
		l.wedged = fmt.Errorf("archive: seal close: %w", err)
		return l.wedged
	}
	// The data is durable and complete from here on; the sidecar is a pure
	// accelerator (rebuilt on Open when missing), so its write failing still
	// promotes the in-memory index, without folds to read back — but the
	// file is closed, so the log is wedged until a fresh segment opens.
	key := segRef{TierRaw, l.curIndex}
	si, err := l.sealSidecarLocked(key)
	if si.folded = si.folded && err == nil; err != nil {
		l.wedged = fmt.Errorf("archive: seal sidecar: %w", err)
	}
	l.idx[key] = si
	return l.wedged
}

// sealSidecarLocked writes the sealed sidecar of the active segment, whose
// file is closed, and returns the index to keep for it. The entries are read
// back from the partial sidecar and pend; when the segment's folds were
// dropped or do not read back, the file is indexed afresh.
func (l *Log) sealSidecarLocked(key segRef) (*segIndex, error) {
	si, path := l.active, filepath.Join(l.dir, key.sidecarName())
	if spilled := si.blocks*idxEntrySize - len(l.pend); si.folded {
		b := make([]byte, idxHeaderSize)
		if spilled > 0 {
			b, _ = os.ReadFile(path)
		}
		if len(b) == idxHeaderSize+spilled {
			return si, writeSidecar(path, si.marshal(append(b[idxHeaderSize:], l.pend...)))
		}
	}
	fresh, err := buildIndex(filepath.Join(l.dir, key.fileName()), true)
	if err != nil {
		return si, err
	}
	err = writeSidecar(path, fresh.marshal(nil))
	fresh.thin()
	return fresh, err
}

func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	l.obsRotations.Inc()
	l.openSegment(l.curIndex + 1)
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
// from here on. Instrument touches no file.
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
		l.obsTierBytes[t] = r.Gauge(obs.Name("archive_rollup_tier_bytes", "log", name, "tier", TierNames[t]))
	}
	l.obsRebuilds.Add(l.idxRebuilds)
	l.updateTierGaugesLocked()
	l.mu.Unlock()
}

// updateTierGaugesLocked sets the per-tier byte gauges from the indexes, each
// of which covers its whole file, and the active segment's written blocks
// unless a seal already moved its index into idx. A segment a wedge abandoned
// has no index and counts from the next Open.
func (l *Log) updateTierGaugesLocked() {
	var bytes [numTiers]int64
	for r, si := range l.idx {
		bytes[r.tier] += si.size
	}
	if _, sealed := l.idx[segRef{TierRaw, l.curIndex}]; !sealed && !l.closed {
		bytes[TierRaw] += l.active.size
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

// Sync writes the open block to the active segment and flushes the file to
// stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if l.wedged != nil {
		return fmt.Errorf("archive: log wedged: %w", l.wedged)
	}
	if err := l.writeBlockLocked(); err != nil {
		return err
	}
	if l.cur == nil {
		return nil // no block was ever written: nothing on disk to flush
	}
	return l.cur.Sync()
}

// Close writes the open block and closes the active segment, sealing its
// index sidecar so the next Open needs no rebuild. A wedged log's active
// file is already closed, so Close does not touch it again (no double
// close); it reports the wedging error once more instead.
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

// account counts per-segment read statistics.
func (l *Log) account(corrupt int, bytes int64, skipped int) {
	l.obsCorrupt.Add(uint64(corrupt))
	l.obsReadBytes.Add(uint64(bytes))
	l.obsSegSkipped.Add(uint64(skipped))
}

// Range streams tuples whose Timestamp lies in [from, to], coarsest tier
// first, using the sparse per-file indexes: files whose [firstTS, lastTS]
// envelope misses the window are skipped without touching the file, and
// within a sorted file the read starts at the block holding `from` and stops
// at the first block that starts past `to` — instead of decoding every file
// from byte zero. Unindexed or unsorted files fall back to a full filtered
// scan, so Range never misses records the index cannot vouch for.
//
// A Range does no file-system work it can know the answer to: the file table
// is cached (see Log.files), the active segment's written blocks are read
// through one shared handle, and its open block is copied as a frame under
// the lock (the encoder writes its last byte in place) only when the window
// reaches it.
func (l *Log) Range(from, to int64, fn func(telemetry.Info) error) error {
	return l.walk(from, to, nil, fn)
}

// Aggregate returns the fold of the tuples Range(from, to) streams. It plans
// as Range does, but takes a file or block that lies wholly inside the window
// from its fold where it has one: a sealed raw-tier file from its index, a
// written block of a sorted raw-tier file from its sidecar entry (see
// segIndex.readFolds), the open block from its running fold. Edge blocks,
// unsorted files and roll-up files are decoded as Range decodes them. Count,
// Min, Max, First and Last equal the fold of Range's tuples; Sum adds the
// per-file and per-block sums in file and block order, so its last bits may
// differ from a tuple-by-tuple sum.
func (l *Log) Aggregate(from, to int64) (telemetry.Summary, error) {
	var s telemetry.Summary
	err := l.walk(from, to, &s, func(in telemetry.Info) error {
		s.Add(in)
		return nil
	})
	return s, err
}

// walk is Range, and with fold set Aggregate: files and blocks wholly inside
// the window are merged into *fold instead of being decoded, and every tuple
// decoded goes to fn.
func (l *Log) walk(from, to int64, fold *telemetry.Summary, fn func(telemetry.Info) error) error {
	if from > to {
		return nil
	}
	l.compactMu.RLock()
	defer l.compactMu.RUnlock()
	sc := getScanBuf()
	defer sc.release()
	l.mu.Lock()
	files, err := l.filesLocked()
	if err != nil {
		l.mu.Unlock()
		return err
	}
	var (
		corrupt, skipped int
		bytes            int64
		live             = !l.closed // the active segment is read apart from the table
		actRef           = segRef{TierRaw, l.curIndex}
		act              segIndex          // the active segment's index as of now
		rd               *segReader        // set when the active segment's file must be read
		open             bool              // set when its open block must be decoded: sc.tail holds it as a frame
		openFold         telemetry.Summary // the open block's fold, when that stands in for decoding it
	)
	// The active segment may have no file yet: then act.size is 0 and only
	// its open block can hold tuples.
	if live {
		// The header copy is safe to read after unlock: blocks written
		// later lie past act.size, and reallocation leaves our view intact.
		act = *l.active
		if !act.covers(from, to) {
			skipped++
		} else {
			if fold != nil {
				sc.pend = append(sc.pend[:0], l.pend...)
			}
			if fold != nil && l.openFold.Count > 0 && l.openFold.First >= from && l.openFold.Last <= to {
				openFold = l.openFold
			} else if open = l.open.Len() > 0 && (!act.sorted || l.open.FirstTimestamp() <= to); open {
				sc.tail = l.open.AppendFrame(sc.tail[:0], TierRaw)
			}
			// A sorted segment's written blocks end at or before the open
			// block's first timestamp.
			if act.size > 0 && !(act.sorted && l.open.Len() > 0 && from > l.open.FirstTimestamp()) {
				if rd, err = l.activeReaderLocked(); err != nil {
					l.mu.Unlock()
					return err
				}
				defer rd.release()
			}
		}
	}
	l.mu.Unlock()
	defer func() { l.account(corrupt, bytes, skipped) }()

	for _, p := range files {
		if live && p.ref == actRef {
			continue
		}
		if p.si != nil && !p.si.covers(from, to) {
			skipped++
			continue
		}
		if fold != nil && p.si != nil && p.si.folded && from <= p.si.firstTS && p.si.lastTS <= to {
			fold.Merge(p.si.total)
			continue
		}
		c, b, err := l.scanFile(p, sc, from, to, fold, fn)
		corrupt, bytes = corrupt+c, bytes+b
		if err != nil {
			return err
		}
	}
	if rd != nil {
		c, b, err := l.scanWindow(rd.f, sc, act.size, &act, actRef, sc.pend, true, from, to, fold, fn)
		corrupt, bytes = corrupt+c, bytes+b
		if err != nil {
			return err
		}
	}
	if open {
		c, err := scanBlocks(sc.tail, sc, act.sorted, false, from, to, fn)
		corrupt, bytes = corrupt+c, bytes+int64(len(sc.tail))
		return err
	}
	if fold != nil {
		fold.Merge(openFold)
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
			l.files[i] = fileEntry{ref: r, si: l.idx[r]}
		}
	}
	return l.files, nil
}

// activeReaderLocked opens the active segment's shared read handle on first
// use and returns it with a reference taken for the caller.
func (l *Log) activeReaderLocked() (*segReader, error) {
	if l.rd == nil {
		f, err := os.Open(filepath.Join(l.dir, segRef{TierRaw, l.curIndex}.fileName()))
		if err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
		l.rd = &segReader{f: f}
		l.rd.refs.Store(1)
	}
	l.rd.refs.Add(1)
	return l.rd, nil
}

// scanFile streams the in-window records of one sealed file, read and
// decoded through sc; with fold set, a raw-tier file's whole blocks are
// folded instead (see scanWindow).
func (l *Log) scanFile(p fileEntry, sc *scanBuf, from, to int64, fold *telemetry.Summary, fn func(telemetry.Info) error) (corrupt int, bytes int64, err error) {
	f, err := os.Open(filepath.Join(l.dir, p.ref.fileName()))
	if err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	return l.scanWindow(f, sc, st.Size(), p.si, p.ref, nil, false, from, to, fold, fn)
}

// scanWindow reads the blocks of f's first size bytes that si says can hold
// [from, to] into sc and streams the in-window records out of them. With
// fold set, those blocks' entries are read back with their folds (from the
// sidecar of ref and pend, see segIndex.readFolds), and the stretch of
// blocks that lie wholly inside the window is merged into *fold and not
// read, so only the blocks before and after it are.
func (l *Log) scanWindow(f *os.File, sc *scanBuf, size int64, si *segIndex, ref segRef, pend []byte, active bool, from, to int64, fold *telemetry.Summary, fn func(telemetry.Info) error) (corrupt int, bytes int64, err error) {
	if fold != nil {
		if limit, n, ok := si.readFolds(l.dir, ref, pend, size, from, to, sc); ok {
			si, active, size, bytes = &sc.fine, active && limit == size, limit, n
		} else {
			fold = nil
		}
	}
	start := si.seek(from)
	end := min(si.seekEnd(to, size), size)
	var run []telemetry.Summary
	lo, hi := start, start
	if fold != nil {
		if run, lo, hi = si.whole(from, to, size); len(run) == 0 {
			lo, hi = start, start
		}
	}
	sorted := si != nil && si.sorted
	c, b, err := readBlocks(f, sc, start, lo, sorted, false, from, to, fn)
	if corrupt, bytes = c, bytes+b; err != nil {
		return corrupt, bytes, err
	}
	for _, s := range run {
		fold.Merge(s)
	}
	// A trailing undecodable run only counts as a torn tail when the read
	// window extends to the end of the active segment.
	c, b, err = readBlocks(f, sc, hi, end, sorted, active && end == size, from, to, fn)
	return corrupt + c, bytes + b, err
}

// readBlocks reads f's bytes [start, end) into sc and streams the in-window
// records of their blocks.
func readBlocks(f *os.File, sc *scanBuf, start, end int64, sorted, tornTailOK bool, from, to int64, fn func(telemetry.Info) error) (corrupt int, bytes int64, err error) {
	if start >= end {
		return 0, 0, nil
	}
	sc.data = slices.Grow(sc.data[:0], int(end-start))[:end-start]
	if _, err := f.ReadAt(sc.data, start); err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	corrupt, err = scanBlocks(sc.data, sc, sorted, tornTailOK, from, to, fn)
	return corrupt, end - start, err
}
