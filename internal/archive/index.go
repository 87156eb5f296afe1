package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/telemetry/block"
)

// Sparse per-file timestamp index. Each sealed data file gets a small `.idx`
// sidecar recording the file's first/last record timestamps plus the byte
// offset and first timestamp of every block and, in a raw-tier file, the
// block's fold (telemetry.Summary) and the fold of the whole file. Range uses
// it to (a) skip whole files outside the query window and (b) seek to the
// block holding the first relevant record instead of decoding the file from
// byte zero; Aggregate also (c) folds a file, or a block, that lies wholly
// inside the window from its fold instead of decoding it.
//
// What stays in memory grows with the archive, so it is kept to what version
// 2 kept: a raw file's resident index holds every seekStride-th seek point,
// one per block.MaxRecords tuples, and no block folds (16 B per 1 024
// tuples), plus the file's fold. Aggregate reads the block entries it needs
// back from the sidecar (readFolds). The active segment writes its blocks'
// entries to its sidecar foldBatch at a time, at the offsets they keep in
// the sealed sidecar, and holds the rest encoded in memory; the header of
// that partial sidecar stays zero, so a crash leaves a sidecar Open rebuilds.
//
// Sidecar framing (little endian; a word is 8 bytes, an integer or a float):
//
//	u32  magic "AIDX"
//	u8   version (3; a version-2 sidecar, which has no folds, is rebuilt)
//	u8   flags (bit0: records are timestamp-sorted; bit1: folds)
//	8 words: file size in bytes when indexed (staleness check), record
//	     count, first timestamp, last timestamp, the sum, min and max of the
//	     file's values (zero without folds), entry count (one a block)
//	[..] entries, each the words offset, first timestamp and, with folds,
//	     last timestamp, count, sum, min, max
//	u32  crc32 (IEEE) of everything above
//
// The CRC plus the recorded file size make the sidecar crash-safe: a torn,
// corrupt, or stale sidecar is detected on Open and rebuilt from the file
// itself; a missing sidecar is likewise rebuilt. The index is purely an
// accelerator — the data file remains the source of truth.

const (
	idxMagic   = 0x58444941 // "AIDX"
	idxVersion = 3

	idxFlagSorted = 1 << 0
	idxFlagFolds  = 1 << 1
	idxHeaderSize = 4 + 1 + 1 + 8*8
	idxEntrySize  = 7 * 8 // an entry with its fold; one without has 2 words
)

// errIdxInvalid marks a sidecar that failed a structural or CRC check.
var errIdxInvalid = errors.New("archive: invalid index sidecar")

// idxEntry is one seek point: a block's byte offset and first timestamp (in
// an unsorted file, its least).
type idxEntry struct {
	off   int64
	first int64
}

// segIndex is the index of one data file.
type segIndex struct {
	size    int64 // file bytes covered by this index
	records uint32
	sorted  bool // timestamps non-decreasing across records
	firstTS int64
	lastTS  int64
	// folded: the file is raw-tier, its sidecar carries every block's fold,
	// and total folds all its blocks.
	folded bool
	total  telemetry.Summary
	blocks int // the file's blocks, one sidecar entry each
	// offs holds a seek point per block, except that a raw file's resident
	// index keeps every seekStride-th (thin). folds is parallel to offs
	// while the index is built to be written or read back for an aggregate.
	offs  []idxEntry
	folds []telemetry.Summary
}

// note folds one record's timestamp into the envelope.
func (si *segIndex) note(ts int64) {
	if si.records == 0 {
		si.firstTS, si.lastTS, si.sorted = ts, ts, true
	} else if ts < si.lastTS {
		si.sorted = false
	}
	si.firstTS = min(si.firstTS, ts)
	si.lastTS = max(si.lastTS, ts)
	si.records++
}

// add files a block written at off whose tuples fold to fold.
func (si *segIndex) add(off int64, fold telemetry.Summary) {
	si.offs = append(si.offs, idxEntry{off, fold.First})
	if si.folded {
		si.folds = append(si.folds, fold)
		si.total.Merge(fold)
	}
	si.blocks++
}

// thin strips a raw file's index to what a log keeps in memory: every
// seekStride-th seek point, in a slice of its own, and no block folds.
func (si *segIndex) thin() {
	keep := make([]idxEntry, 0, (len(si.offs)+seekStride-1)/seekStride)
	for i := 0; i < len(si.offs); i += seekStride {
		keep = append(keep, si.offs[i])
	}
	si.offs, si.folds = keep, nil
}

// covers reports whether the file may contain records in [from, to].
// firstTS/lastTS hold the min/max timestamp, so the envelope check is valid
// even for unsorted files; a nil index means "unknown, must scan".
func (si *segIndex) covers(from, to int64) bool {
	if si == nil {
		return true
	}
	if si.records == 0 {
		return false
	}
	return si.lastTS >= from && si.firstTS <= to
}

// seek returns the byte offset to start scanning for records with ts >=
// from: the offset of the last seek point whose first timestamp is < from
// (the records of the blocks from there may straddle the boundary). Returns
// 0 for unsorted files.
func (si *segIndex) seek(from int64) int64 {
	if si == nil || !si.sorted || len(si.offs) == 0 {
		return 0
	}
	// First block with ts >= from; start at its predecessor.
	i := sort.Search(len(si.offs), func(i int) bool { return si.offs[i].first >= from })
	if i == 0 {
		return si.offs[0].off
	}
	return si.offs[i-1].off
}

// seekEnd returns the byte offset past which no record with ts <= to can
// exist (the first seek point whose first timestamp is > to), or limit when
// the tail must be scanned. Returns limit for unsorted files.
func (si *segIndex) seekEnd(to int64, limit int64) int64 {
	if si == nil || !si.sorted {
		return limit
	}
	i := sort.Search(len(si.offs), func(i int) bool { return si.offs[i].first > to })
	if i == len(si.offs) {
		return limit
	}
	return si.offs[i].off
}

// whole returns the folds of the run of blocks that lie wholly inside
// [from, to], and the bytes [lo, hi) they take in a file whose blocks end at
// size; si is an index with folds of a sorted file, whose blocks start and
// end in timestamp order, so the run is one stretch of the file.
func (si *segIndex) whole(from, to, size int64) (run []telemetry.Summary, lo, hi int64) {
	a := sort.Search(len(si.offs), func(i int) bool { return si.offs[i].first >= from })
	b := a + sort.Search(len(si.offs)-a, func(i int) bool { return si.folds[a+i].Last > to })
	if a == b {
		return nil, 0, 0
	}
	if hi = size; b < len(si.offs) {
		hi = si.offs[b].off
	}
	return si.folds[a:b], si.offs[a].off, hi
}

// readFolds reads back, into sc.fine, the entries with folds of the blocks
// of a sorted raw file that can hold [from, to]: those from the seek point
// before from to the one past to in si, its resident index. It returns the
// byte where that stretch ends in a file whose blocks end at size, and the
// sidecar bytes it read. The entries of the blocks before the last
// len(pend)/idxEntrySize come from the sidecar of ref in dir, the rest from
// pend.
// ok is false when there are no folds to read or the entries do not match
// si's seek points.
func (si *segIndex) readFolds(dir string, ref segRef, pend []byte, size, from, to int64, sc *scanBuf) (limit, bytes int64, ok bool) {
	if !si.sorted || !si.folded {
		return 0, 0, false
	}
	c0 := max(sort.Search(len(si.offs), func(i int) bool { return si.offs[i].first >= from })-1, 0)
	c1 := sort.Search(len(si.offs), func(i int) bool { return si.offs[i].first > to })
	b0, b1 := c0*seekStride, min(c1*seekStride, si.blocks)
	if limit = size; c1 < len(si.offs) {
		limit = si.offs[c1].off
	}
	spilled := si.blocks - len(pend)/idxEntrySize
	n := max(min(b1, spilled)-b0, 0) * idxEntrySize
	sc.data = slices.Grow(sc.data[:0], n)[:n]
	if n > 0 {
		f, err := os.Open(filepath.Join(dir, ref.sidecarName()))
		if err != nil {
			return 0, 0, false
		}
		_, err = f.ReadAt(sc.data, idxHeaderSize+int64(b0*idxEntrySize))
		f.Close()
		if err != nil {
			return 0, 0, false
		}
	}
	sc.data = append(sc.data, pend[max(b0-spilled, 0)*idxEntrySize:max(b1-spilled, 0)*idxEntrySize]...)
	sc.fine = segIndex{sorted: true, folded: true, offs: sc.fine.offs[:0], folds: sc.fine.folds[:0]}
	sc.fine.decodeEntries(sc.data, max(b1-b0, 0))
	for c := c0; c < c1; c++ {
		if sc.fine.offs[c*seekStride-b0] != si.offs[c] {
			return 0, 0, false
		}
	}
	return limit, int64(n), true
}

// appendEntry appends the sidecar entry of a block written at off whose
// tuples fold to fold; with folded unset, the fold is left out.
func appendEntry(b []byte, off int64, fold telemetry.Summary, folded bool) []byte {
	w := [7]uint64{uint64(off), uint64(fold.First), uint64(fold.Last), uint64(fold.Count),
		math.Float64bits(fold.Sum), math.Float64bits(fold.Min), math.Float64bits(fold.Max)}
	if !folded {
		return appendWords(b, w[:2]...)
	}
	return appendWords(b, w[:]...)
}

func appendWords(b []byte, words ...uint64) []byte {
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// decodeEntries files the n entries b begins with.
func (si *segIndex) decodeEntries(b []byte, n int) {
	size := 2 * 8
	if si.folded {
		size = idxEntrySize
	}
	for i := range n {
		w := func(k int) uint64 { return binary.LittleEndian.Uint64(b[i*size+8*k:]) }
		si.offs = append(si.offs, idxEntry{int64(w(0)), int64(w(1))})
		if si.folded {
			si.folds = append(si.folds, telemetry.Summary{First: int64(w(1)), Last: int64(w(2)), Count: int64(w(3)),
				Sum: math.Float64frombits(w(4)), Min: math.Float64frombits(w(5)), Max: math.Float64frombits(w(6))})
		}
	}
	si.blocks += n
}

// marshal renders the sidecar of an index with every block's entry; entries,
// when given, are those entries already encoded.
func (si *segIndex) marshal(entries []byte) []byte {
	var flags byte
	if si.sorted {
		flags |= idxFlagSorted
	}
	if si.folded {
		flags |= idxFlagFolds
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, idxHeaderSize+idxEntrySize*si.blocks+4), idxMagic)
	b = appendWords(append(b, idxVersion, flags), uint64(si.size), uint64(si.records), uint64(si.firstTS), uint64(si.lastTS),
		math.Float64bits(si.total.Sum), math.Float64bits(si.total.Min), math.Float64bits(si.total.Max), uint64(si.blocks))
	b = append(b, entries...)
	for i := 0; entries == nil && i < len(si.offs); i++ {
		var fold telemetry.Summary
		if si.folded {
			fold = si.folds[i]
		}
		fold.First = si.offs[i].first
		b = appendEntry(b, si.offs[i].off, fold, si.folded)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// unmarshalSegIndex parses and verifies a sidecar.
func unmarshalSegIndex(b []byte) (*segIndex, error) {
	if len(b) < idxHeaderSize+4 {
		return nil, errIdxInvalid
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum || binary.LittleEndian.Uint32(b) != idxMagic || b[4] != idxVersion || b[5]&^(idxFlagSorted|idxFlagFolds) != 0 {
		return nil, errIdxInvalid
	}
	w := func(k int) uint64 { return binary.LittleEndian.Uint64(b[6+8*k:]) }
	si := &segIndex{sorted: b[5]&idxFlagSorted != 0, folded: b[5]&idxFlagFolds != 0,
		size: int64(w(0)), records: uint32(w(1)), firstTS: int64(w(2)), lastTS: int64(w(3))}
	si.total = telemetry.Summary{Count: int64(si.records), First: si.firstTS, Last: si.lastTS,
		Sum: math.Float64frombits(w(4)), Min: math.Float64frombits(w(5)), Max: math.Float64frombits(w(6))}
	n, size := w(7), uint64(2*8)
	if si.folded {
		size = idxEntrySize
	}
	if w(1) > math.MaxUint32 || uint64(len(body)-idxHeaderSize) != n*size || n > uint64(len(body)) {
		return nil, errIdxInvalid
	}
	si.decodeEntries(b[idxHeaderSize:], int(n))
	return si, nil
}

// writeSidecar persists the sidecar b at path, atomically (tmp + rename)
// so a crash mid-write leaves either the old sidecar or none — never a torn
// one that silently misdirects reads (the CRC would catch it regardless).
func writeSidecar(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// loadSidecar reads a sidecar and validates it against the data file's
// current size; any failure (missing, corrupt, stale) returns an error so the
// caller rebuilds.
func loadSidecar(path string, size int64) (*segIndex, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	si, err := unmarshalSegIndex(b)
	if err != nil {
		return nil, err
	}
	if si.size != size {
		return nil, fmt.Errorf("%w: stale (indexed %d bytes, file has %d)", errIdxInvalid, si.size, size)
	}
	return si, nil
}

// buildIndex scans a data file and constructs its index, skipping corrupt
// blocks the way a read does; with folded set (a raw-tier file) it folds
// every block.
func buildIndex(path string, folded bool) (*segIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	si := &segIndex{size: int64(len(data)), folded: folded}
	var f block.Reader
	for off := 0; off < len(data); {
		n, err := f.Open(data[off:])
		if err != nil {
			skip := block.Resync(data[off+1:])
			if skip < 0 {
				break
			}
			off += 1 + skip
			continue
		}
		var fold telemetry.Summary
		for f.Next() {
			fold.Add(f.Info())
			si.note(f.Info().Timestamp)
		}
		if fold.Count > 0 {
			si.add(int64(off), fold)
		}
		off += n
	}
	return si, nil
}
