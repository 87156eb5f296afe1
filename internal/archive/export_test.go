package archive

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
	"repro/internal/telemetry/block"
)

// Replay streams every archived tuple, coarsest tier first (1m rollups, 10s
// rollups, then full resolution), oldest first within a tier, to fn: each
// data file read whole, then the active segment's open block. It is the
// whole-log reference Range is tested against, and holds the log's lock
// throughout, so fn must not call the Log. Replay stops at the first error
// from fn. Trailing undecodable bytes of the active segment's file are a
// torn write and end its replay silently; corruption anywhere else is
// skipped (resynchronizing on the block framing) and counted.
func (l *Log) Replay(fn func(telemetry.Info) error) error {
	l.compactMu.RLock()
	defer l.compactMu.RUnlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	refs, err := l.scanRefs()
	if err != nil {
		return err
	}
	for _, r := range refs {
		corrupt, bytes, err := replayFile(filepath.Join(l.dir, r.fileName()), r == segRef{TierRaw, l.curIndex}, fn)
		l.account(corrupt, bytes, 0)
		if err != nil {
			return err
		}
	}
	if l.closed || l.open.Len() == 0 {
		return nil
	}
	open := l.open.AppendFrame(nil, TierRaw)
	corrupt, err := scanBlocks(open, new(scanBuf), false, false, math.MinInt64, math.MaxInt64, fn)
	l.account(corrupt, int64(len(open)), 0)
	return err
}

// replayFile replays one data file whole, returning how many corrupt regions
// were skipped and how many bytes were read.
func replayFile(path string, tornTailOK bool, fn func(telemetry.Info) error) (int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("archive: %w", err)
	}
	corrupt, err := scanBlocks(data, new(scanBuf), false, tornTailOK, math.MinInt64, math.MaxInt64, fn)
	return corrupt, int64(len(data)), err
}

// encodeBlock appends one block holding infos (1 to block.MaxRecords of
// them) to dst.
func encodeBlock(dst []byte, tier uint8, infos []telemetry.Info) []byte {
	var b block.Writer
	for _, in := range infos {
		b.Add(in)
	}
	return b.AppendFrame(dst, tier)
}

// decodeBlock decodes the whole block at the front of b, returning its
// tuples and the frame length, or an error if any check or record fails.
func decodeBlock(b []byte) ([]telemetry.Info, int, error) {
	var f block.Reader
	n, err := f.Open(b)
	if err != nil {
		return nil, 0, err
	}
	var out []telemetry.Info
	for f.Next() {
		out = append(out, f.Info())
	}
	if err := f.Err(); err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

func segmentName(i int) string { return segRef{TierRaw, i}.fileName() }

func indexName(i int) string { return segRef{TierRaw, i}.sidecarName() }
