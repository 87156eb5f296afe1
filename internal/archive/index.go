package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/telemetry/block"
)

// Sparse per-file timestamp index. Each sealed data file gets a small `.idx`
// sidecar recording the file's first/last record timestamps plus the byte
// offset and first timestamp of every block. Range uses it to (a) skip whole
// files outside the query window and (b) seek to the block holding the first
// relevant record instead of decoding the file from byte zero.
//
// Sidecar framing (little endian):
//
//	u32  magic "AIDX"
//	u8   version (2)
//	u8   flags (bit0: records are timestamp-sorted)
//	i64  file size in bytes when indexed (staleness check)
//	u32  record count
//	i64  first timestamp
//	i64  last timestamp
//	u32  sparse entry count
//	[..] entries: { i64 offset, i64 timestamp }
//	u32  crc32 (IEEE) of everything above
//
// The CRC plus the recorded file size make the sidecar crash-safe: a torn,
// corrupt, or stale sidecar is detected on Open and rebuilt from the file
// itself; a missing sidecar is likewise rebuilt. The index is purely an
// accelerator — the data file remains the source of truth.

const (
	idxMagic   = 0x58444941 // "AIDX"
	idxVersion = 2

	idxFlagSorted = 1 << 0
	idxHeaderSize = 4 + 1 + 1 + 8 + 4 + 8 + 8 + 4
)

// errIdxInvalid marks a sidecar that failed a structural or CRC check.
var errIdxInvalid = errors.New("archive: invalid index sidecar")

// idxEntry is one sparse index point: a block.
type idxEntry struct {
	off int64 // byte offset of the block in the file
	ts  int64 // the block's first timestamp
}

// segIndex is the in-memory index of one data file.
type segIndex struct {
	size    int64 // file bytes covered by this index
	records uint32
	sorted  bool // timestamps non-decreasing across records
	firstTS int64
	lastTS  int64
	offs    []idxEntry
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
// from: the offset of the last block whose first timestamp is < from (the
// records of that block may straddle the boundary). Returns 0 for unsorted
// files.
func (si *segIndex) seek(from int64) int64 {
	if si == nil || !si.sorted || len(si.offs) == 0 {
		return 0
	}
	// First block with ts >= from; start at its predecessor.
	i := sort.Search(len(si.offs), func(i int) bool { return si.offs[i].ts >= from })
	if i == 0 {
		return si.offs[0].off
	}
	return si.offs[i-1].off
}

// seekEnd returns the byte offset past which no record with ts <= to can
// exist (the first block whose first timestamp is > to), or limit when the
// tail must be scanned. Returns limit for unsorted files.
func (si *segIndex) seekEnd(to int64, limit int64) int64 {
	if si == nil || !si.sorted {
		return limit
	}
	i := sort.Search(len(si.offs), func(i int) bool { return si.offs[i].ts > to })
	if i == len(si.offs) {
		return limit
	}
	return si.offs[i].off
}

// marshal renders the sidecar bytes.
func (si *segIndex) marshal() []byte {
	b := make([]byte, 0, idxHeaderSize+16*len(si.offs)+4)
	b = binary.LittleEndian.AppendUint32(b, idxMagic)
	b = append(b, idxVersion)
	var flags byte
	if si.sorted {
		flags |= idxFlagSorted
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(si.size))
	b = binary.LittleEndian.AppendUint32(b, si.records)
	b = binary.LittleEndian.AppendUint64(b, uint64(si.firstTS))
	b = binary.LittleEndian.AppendUint64(b, uint64(si.lastTS))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(si.offs)))
	for _, e := range si.offs {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.off))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.ts))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// unmarshalSegIndex parses and verifies a sidecar.
func unmarshalSegIndex(b []byte) (*segIndex, error) {
	if len(b) < idxHeaderSize+4 {
		return nil, errIdxInvalid
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, errIdxInvalid
	}
	if binary.LittleEndian.Uint32(b) != idxMagic || b[4] != idxVersion {
		return nil, errIdxInvalid
	}
	si := &segIndex{sorted: b[5]&idxFlagSorted != 0}
	si.size = int64(binary.LittleEndian.Uint64(b[6:]))
	si.records = binary.LittleEndian.Uint32(b[14:])
	si.firstTS = int64(binary.LittleEndian.Uint64(b[18:]))
	si.lastTS = int64(binary.LittleEndian.Uint64(b[26:]))
	n := int(binary.LittleEndian.Uint32(b[34:]))
	if len(body) != idxHeaderSize+16*n {
		return nil, errIdxInvalid
	}
	si.offs = make([]idxEntry, n)
	for i := range si.offs {
		e := b[idxHeaderSize+16*i:]
		si.offs[i] = idxEntry{off: int64(binary.LittleEndian.Uint64(e)), ts: int64(binary.LittleEndian.Uint64(e[8:]))}
	}
	return si, nil
}

// writeSidecar persists si next to its data file, atomically (tmp + rename)
// so a crash mid-write leaves either the old sidecar or none — never a torn
// one that silently misdirects reads (the CRC would catch it regardless).
func writeSidecar(path string, si *segIndex) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, si.marshal(), 0o644); err != nil {
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
// blocks the way a read does.
func buildIndex(path string) (*segIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	si := &segIndex{size: int64(len(data))}
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
		for first := true; f.Next(); first = false {
			if first {
				si.offs = append(si.offs, idxEntry{off: int64(off), ts: f.Info().Timestamp})
			}
			si.note(f.Info().Timestamp)
		}
		off += n
	}
	return si, nil
}
