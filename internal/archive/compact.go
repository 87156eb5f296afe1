package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Tiered compaction and retention. A Compact pass does two things, each
// crash-safe on its own:
//
//  1. Rollup: full-resolution files wholly older than Retention.Raw are
//     downsampled into one 10-second-bucket rollup file; 10s files wholly
//     older than Retention.Rollup10s are downsampled again into 1-minute
//     buckets.
//  2. Drop: 1m files wholly older than Retention.Rollup1m are deleted.
//
// Every rewrite follows the same protocol: write the output to a `.tmp`
// file, journal the intent (`compact.meta`: destination + source list),
// rename the output into place, delete the sources, clear the journal. The
// rename is atomic, so recovery on Open is trivial — if the journalled
// destination exists the rewrite happened and any surviving sources are
// deleted; if it does not, nothing happened and only the tmp file is swept.
// A pass therefore never duplicates or loses data across a crash at any
// instant.
//
// Rollup files are selected whole (file lastTS strictly older than the
// horizon), never split, so a tuple is represented in exactly one tier at a
// time and Range — which walks tiers coarsest-first — never sees a tuple
// twice.

// Retention is a per-log age policy, each bound measured back from the
// compaction pass's notion of now. A tuple younger than Raw stays at full
// resolution; between Raw and Rollup10s it lives as a 10-second rollup;
// between Rollup10s and Rollup1m as a 1-minute rollup; past Rollup1m it is
// dropped. A zero Raw disables downsampling entirely (segments are still
// written compressed); a zero deeper bound keeps that tier forever.
type Retention struct {
	Raw       time.Duration // keep full resolution this long
	Rollup10s time.Duration // then 10s averages this long
	Rollup1m  time.Duration // then 1m averages this long, then drop
}

// String renders the policy in the flag syntax ParseRetention accepts.
func (r Retention) String() string {
	return fmt.Sprintf("raw=%s,10s=%s,1m=%s", r.Raw, r.Rollup10s, r.Rollup1m)
}

// IsZero reports whether the policy is entirely unset.
func (r Retention) IsZero() bool { return r == Retention{} }

// ParseRetention parses the CLI form "raw=15m,10s=2h,1m=24h". Keys may
// appear in any order and be omitted (omitted bounds stay zero = keep
// forever / no downsampling).
func ParseRetention(s string) (Retention, error) {
	var r Retention
	if strings.TrimSpace(s) == "" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return r, fmt.Errorf("archive: retention %q: want key=duration", part)
		}
		d, err := time.ParseDuration(strings.TrimSpace(v))
		if err != nil {
			return r, fmt.Errorf("archive: retention %q: %w", part, err)
		}
		if d < 0 {
			return r, fmt.Errorf("archive: retention %q: negative duration", part)
		}
		switch strings.TrimSpace(k) {
		case "raw":
			r.Raw = d
		case "10s":
			r.Rollup10s = d
		case "1m":
			r.Rollup1m = d
		default:
			return r, fmt.Errorf("archive: retention %q: unknown tier (want raw, 10s, 1m)", k)
		}
	}
	return r, nil
}

// Rollup bucket widths per tier.
const (
	Tier10sBucket = 10 * time.Second
	Tier1mBucket  = time.Minute
)

// DefaultCompactInterval is how often the Compactor runs when unset.
const DefaultCompactInterval = time.Minute

// CompactStats summarizes one Compact pass.
type CompactStats struct {
	CompressedBytes int64 // rollup block bytes written
	Rolled10s       int   // tuples written into the 10s tier
	Rolled1m        int   // tuples written into the 1m tier
	DroppedFiles    int   // files removed by retention
}

// ---- compaction journal -------------------------------------------------

const (
	metaName    = "compact.meta"
	metaMagic   = 0x544D4341 // "ACMT"
	metaVersion = 2
)

// inflightOp journals one rewrite: dst is about to be renamed into place and
// srcs deleted.
type inflightOp struct {
	dst  segRef
	srcs []segRef
}

func appendRef(b []byte, r segRef) []byte {
	return binary.LittleEndian.AppendUint32(append(b, byte(r.tier)), uint32(r.index))
}

func readRef(b []byte) (segRef, []byte, bool) {
	if len(b) < 5 || int(b[0]) >= numTiers {
		return segRef{}, nil, false
	}
	return segRef{tier: int(b[0]), index: int(binary.LittleEndian.Uint32(b[1:]))}, b[5:], true
}

// saveJournal persists op atomically; a nil op clears the journal.
func saveJournal(dir string, op *inflightOp) error {
	path := filepath.Join(dir, metaName)
	if op == nil {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("archive: %w", err)
		}
		return nil
	}
	b := binary.LittleEndian.AppendUint32(nil, metaMagic)
	b = append(b, metaVersion)
	b = appendRef(b, op.dst)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(op.srcs)))
	for _, s := range op.srcs {
		b = appendRef(b, s)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
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

// loadJournal reads the journal; a missing or corrupt journal is nil (a
// corrupt journal cannot exist via the atomic write path, so nil is the
// safe reading).
func loadJournal(dir string) *inflightOp {
	b, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil || len(b) < 4+1+5+2+4 {
		return nil
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil
	}
	if binary.LittleEndian.Uint32(b) != metaMagic || b[4] != metaVersion {
		return nil
	}
	rest := body[5:]
	op := &inflightOp{}
	var ok bool
	if op.dst, rest, ok = readRef(rest); !ok {
		return nil
	}
	if len(rest) < 2 {
		return nil
	}
	n := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	for i := 0; i < n; i++ {
		var s segRef
		if s, rest, ok = readRef(rest); !ok {
			return nil
		}
		op.srcs = append(op.srcs, s)
	}
	if len(rest) != 0 {
		return nil
	}
	return op
}

// recoverCompaction rolls an interrupted rewrite forward or back from its
// journal. Called by Open before anything is read; Open then sweeps the stray
// tmp files from its listing.
func (l *Log) recoverCompaction() error {
	if op := loadJournal(l.dir); op != nil {
		if _, err := os.Stat(filepath.Join(l.dir, op.dst.fileName())); err == nil {
			// The rename happened: the rewrite is complete, finish deleting
			// the sources.
			for _, s := range op.srcs {
				if err := removeRefFiles(l.dir, s); err != nil {
					return err
				}
			}
		}
		return saveJournal(l.dir, nil)
	}
	return nil
}

// removeRefFiles deletes a data file and its sidecar.
func removeRefFiles(dir string, r segRef) error {
	for _, name := range []string{r.fileName(), r.sidecarName()} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("archive: %w", err)
		}
	}
	return nil
}

// ---- the compaction pass ------------------------------------------------

// Compact runs one compaction pass against the policy, with now (unix nanos)
// anchoring the age horizons — the caller supplies it so virtual-clock
// scenarios stay deterministic. The active segment is never touched, so
// Compact runs concurrently with Append; it excludes Range for the duration
// of the pass.
func (l *Log) Compact(now int64, policy Retention) (CompactStats, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	var st CompactStats

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return st, errors.New("archive: log closed")
	}
	cur := l.curIndex
	// Files are about to be rewritten and removed: drop Range's table here,
	// with readers still excluded — no Range can rebuild it before the pass
	// releases compactMu, and none may walk a table naming a removed file.
	l.files = nil
	l.mu.Unlock()

	// Pass 1: roll full-resolution files past the Raw horizon into the 10s
	// tier, then 10s files past the Rollup10s horizon into the 1m tier.
	if policy.Raw > 0 {
		refs, err := l.scanRefs()
		if err != nil {
			return st, err
		}
		n, err := l.rollupTier(refs, TierRaw, cur, now-policy.Raw.Nanoseconds(), Tier10s, Tier10sBucket, &st)
		if err != nil {
			return st, err
		}
		st.Rolled10s += n
		if policy.Rollup10s > 0 {
			if refs, err = l.scanRefs(); err != nil {
				return st, err
			}
			n, err := l.rollupTier(refs, Tier10s, -1, now-policy.Rollup10s.Nanoseconds(), Tier1m, Tier1mBucket, &st)
			if err != nil {
				return st, err
			}
			st.Rolled1m += n

			// Pass 2: retention — drop 1m files past the final horizon.
			// Rollup points carry their bucket's start timestamp, so a
			// file's lastTS understates the age of the newest tuple it
			// represents by up to one bucket width; push the horizon back
			// by that much so no tuple inside Rollup1m is ever dropped.
			if policy.Rollup1m > 0 {
				if refs, err = l.scanRefs(); err != nil {
					return st, err
				}
				horizon := now - policy.Rollup1m.Nanoseconds() - Tier1mBucket.Nanoseconds()
				for _, r := range refs {
					if r.tier != Tier1m {
						continue
					}
					l.mu.Lock()
					si := l.idx[r]
					l.mu.Unlock()
					if si == nil || si.records == 0 || si.lastTS >= horizon {
						continue
					}
					if err := removeRefFiles(l.dir, r); err != nil {
						return st, err
					}
					l.mu.Lock()
					delete(l.idx, r)
					l.mu.Unlock()
					st.DroppedFiles++
				}
			}
		}
	}

	l.obsCompactRuns.Inc()
	l.obsCompressed.Add(uint64(st.CompressedBytes))
	l.obsDroppedFiles.Add(uint64(st.DroppedFiles))
	l.mu.Lock()
	l.updateTierGaugesLocked()
	l.mu.Unlock()
	return st, nil
}

// rollupTier downsamples every file of srcTier whose records all predate
// horizon into one new file of dstTier, bucket-averaged. skipIndex excludes
// the active segment when srcTier is the raw tier. Returns the number of
// rollup tuples written.
func (l *Log) rollupTier(refs []segRef, srcTier, skipIndex int, horizon int64, dstTier int, bucket time.Duration, st *CompactStats) (int, error) {
	var srcs []segRef
	var infos []telemetry.Info
	sc := getScanBuf()
	defer sc.release()
	for _, r := range refs {
		if r.tier != srcTier || (srcTier == TierRaw && r.index == skipIndex) {
			continue
		}
		l.mu.Lock()
		si := l.idx[r]
		l.mu.Unlock()
		if si == nil || si.lastTS >= horizon {
			continue
		}
		if _, _, err := l.scanFile(fileEntry{r, si}, sc, math.MinInt64, math.MaxInt64, nil, func(in telemetry.Info) error {
			infos = append(infos, in)
			return nil
		}); err != nil {
			return 0, err
		}
		srcs = append(srcs, r)
	}
	if len(srcs) == 0 {
		return 0, nil
	}
	out := rollup(infos, bucket)
	if len(out) == 0 {
		// Sources held nothing decodable; just delete them.
		for _, s := range srcs {
			if err := removeRefFiles(l.dir, s); err != nil {
				return 0, err
			}
			l.mu.Lock()
			delete(l.idx, s)
			l.mu.Unlock()
		}
		return 0, nil
	}
	next := 0
	for _, r := range refs {
		if r.tier == dstTier && r.index >= next {
			next = r.index + 1
		}
	}
	dst := segRef{tier: dstTier, index: next}
	blob, si := encodeBlocks(uint8(dstTier), out)
	if err := l.writeRewrite(dst, blob, si, srcs); err != nil {
		return 0, err
	}
	st.CompressedBytes += int64(len(blob))
	return len(out), nil
}

// writeRewrite executes the journaled rewrite protocol: tmp write → journal
// → rename → sidecar → delete sources → clear journal, updating the
// in-memory index map at the end.
func (l *Log) writeRewrite(dst segRef, blob []byte, si *segIndex, srcs []segRef) error {
	dstPath := filepath.Join(l.dir, dst.fileName())
	tmp := dstPath + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := saveJournal(l.dir, &inflightOp{dst: dst, srcs: srcs}); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dstPath); err != nil {
		os.Remove(tmp)
		saveJournal(l.dir, nil)
		return fmt.Errorf("archive: %w", err)
	}
	// The rewrite is durable from here; everything below is cleanup that
	// recovery would redo after a crash.
	if err := writeSidecar(filepath.Join(l.dir, dst.sidecarName()), si.marshal(nil)); err != nil {
		return err
	}
	for _, s := range srcs {
		if err := removeRefFiles(l.dir, s); err != nil {
			return err
		}
	}
	if err := saveJournal(l.dir, nil); err != nil {
		return err
	}
	l.mu.Lock()
	for _, s := range srcs {
		delete(l.idx, s)
	}
	l.idx[dst] = si
	l.mu.Unlock()
	return nil
}

// rollup buckets infos per (metric, bucket-start) and averages each bucket.
// The output timestamp is the bucket start; the Source is Measured only when
// every contributing tuple was measured; the Kind is the first seen. Output
// is sorted by (timestamp, metric) so rollup files are sorted and seekable.
func rollup(infos []telemetry.Info, bucket time.Duration) []telemetry.Info {
	type aggKey struct {
		metric telemetry.MetricID
		start  int64
	}
	type agg struct {
		sum       float64
		n         int64
		kind      telemetry.Kind
		predicted bool
	}
	width := bucket.Nanoseconds()
	m := make(map[aggKey]*agg)
	for _, in := range infos {
		rem := in.Timestamp % width
		if rem < 0 {
			rem += width
		}
		k := aggKey{metric: in.Metric, start: in.Timestamp - rem}
		a := m[k]
		if a == nil {
			a = &agg{kind: in.Kind}
			m[k] = a
		}
		a.sum += in.Value
		a.n++
		if in.Source != telemetry.Measured {
			a.predicted = true
		}
	}
	out := make([]telemetry.Info, 0, len(m))
	for k, a := range m {
		src := telemetry.Measured
		if a.predicted {
			src = telemetry.Predicted
		}
		out = append(out, telemetry.Info{
			Metric:    k.metric,
			Timestamp: k.start,
			Value:     a.sum / float64(a.n),
			Kind:      a.kind,
			Source:    src,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Timestamp != out[j].Timestamp {
			return out[i].Timestamp < out[j].Timestamp
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// ---- background compactor ----------------------------------------------

// Compactor periodically compacts a set of logs on a clock — sim.Wall in
// production, a *sim.Virtual in scenarios, which makes every compaction
// decision a deterministic function of the schedule.
type Compactor struct {
	clock    sim.Clock
	interval time.Duration

	mu      sync.Mutex
	targets []compactTarget
	stop    func() // ends the running loop; nil: stopped
}

type compactTarget struct {
	log    *Log
	policy Retention
}

// NewCompactor creates a stopped compactor; Add targets, then Start. A nil
// clock means wall time; a non-positive interval means
// DefaultCompactInterval.
func NewCompactor(clock sim.Clock, interval time.Duration) *Compactor {
	if interval <= 0 {
		interval = DefaultCompactInterval
	}
	return &Compactor{clock: sim.Or(clock), interval: interval}
}

// Add registers a log with its retention policy. Safe while running.
func (c *Compactor) Add(l *Log, policy Retention) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.targets = append(c.targets, compactTarget{log: l, policy: policy})
}

// Start launches the background loop; it is a no-op if already running.
func (c *Compactor) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop == nil {
		c.stop = sim.Every(c.clock, c.interval, func() { c.RunOnce() })
	}
}

// Stop halts the loop and waits for an in-flight pass to finish; it is a
// no-op if the loop is not running.
func (c *Compactor) Stop() {
	c.mu.Lock()
	stop := c.stop
	c.stop = nil
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// RunOnce compacts every registered log once at the clock's current time,
// returning the first error (remaining logs are still compacted).
func (c *Compactor) RunOnce() error {
	c.mu.Lock()
	targets := make([]compactTarget, len(c.targets))
	copy(targets, c.targets)
	c.mu.Unlock()
	now := c.clock.Now().UnixNano()
	var firstErr error
	for _, t := range targets {
		if _, err := t.log.Compact(now, t.policy); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ---- directory inspection (retention reports) ---------------------------

// TierStats summarizes one tier of an archive directory.
type TierStats struct {
	Files   int
	Bytes   int64
	Records uint64
	FirstTS int64
	LastTS  int64
}

// dirStats summarizes an archive directory per tier without opening it for
// writing, preferring sidecars and falling back to scanning the data.
func dirStats(dir string) ([numTiers]TierStats, error) {
	var out [numTiers]TierStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out, fmt.Errorf("archive: %w", err)
	}
	for _, e := range entries {
		r, ok := parseRef(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		st, err := os.Stat(path)
		if err != nil {
			continue
		}
		si, err := loadSidecar(filepath.Join(dir, r.sidecarName()), st.Size())
		if err != nil {
			if si, err = buildIndex(path, false); err != nil {
				continue
			}
		}
		ts := &out[r.tier]
		ts.Files++
		ts.Bytes += st.Size()
		if si.records == 0 {
			continue
		}
		if ts.Records == 0 || si.firstTS < ts.FirstTS {
			ts.FirstTS = si.firstTS
		}
		if ts.Records == 0 || si.lastTS > ts.LastTS {
			ts.LastTS = si.lastTS
		}
		ts.Records += uint64(si.records)
	}
	return out, nil
}

// LogStats is one archive log found by ListLogs: its directory and per-tier
// stats.
type LogStats struct {
	Dir   string
	Tiers [numTiers]TierStats
}

// ListLogs lists the archive logs under root: root itself when it holds
// archive data files, otherwise each immediate subdirectory that does (the
// service's one-directory-per-metric layout), in name order. A directory
// without data files is not a log and is left out.
func ListLogs(root string) ([]LogStats, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	dirs := []string{root}
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	var out []LogStats
	for i, dir := range dirs {
		if tiers, err := dirStats(dir); err == nil && tiers != ([numTiers]TierStats{}) {
			out = append(out, LogStats{Dir: dir, Tiers: tiers})
			if i == 0 {
				break // root is itself a log
			}
		}
	}
	return out, nil
}
