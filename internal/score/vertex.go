package score

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// ErrVertexConfig reports an invalid vertex configuration.
var ErrVertexConfig = errors.New("score: invalid vertex config")

// vertex is the SCoRe vertex core (§3.2) that Fact and Insight vertices
// embed: the metric's in-memory queue and the archiver log its evictions go
// to, the store-and-forward publish stage, the lifecycle, and the query
// executor over queue and log. The two kinds differ only in what builds their
// tuples.
type vertex struct {
	metric  telemetry.MetricID
	history *queue.History
	archive *archive.Log // receives the entries history evicts; nil: none
	stats   Stats
	pub     *BufferedPublisher
	clock   sim.Clock
	wall    bool // clock is sim.Wall: the anatomy read that ends the build stamps the tuples

	obsTuplesIn  *obs.Counter // tuples built from polls, or upstream entries decoded
	obsTuplesOut *obs.Counter // tuples accepted by the publish path

	mu      sync.Mutex // guards running, cancel and done only
	running bool
	cancel  context.CancelFunc
	done    chan struct{}
}

// init sets the core up in place (Stats is shared with the publisher by
// pointer). A nil clock means the wall clock, and historySize <= 0 means
// 4096; the history size also bounds the store-and-forward backlog.
func (v *vertex) init(metric telemetry.MetricID, bus stream.Bus, clock sim.Clock, historySize, failAfter int, log *archive.Log, r *obs.Registry) {
	if historySize <= 0 {
		historySize = 4096
	}
	v.metric, v.archive, v.clock = metric, log, sim.Or(clock)
	_, v.wall = v.clock.(sim.Wall)
	v.pub = newPubBuffer(bus, string(metric), historySize, failAfter, &v.stats, v.clock)
	var onEvict func(telemetry.Info)
	if log != nil {
		onEvict = func(i telemetry.Info) { _ = log.Append(i) }
	}
	v.history = queue.NewHistory(historySize, onEvict)
	if r != nil {
		m := string(metric)
		v.obsTuplesIn = r.Counter(obs.Name("score_tuples_in_total", "metric", m))
		v.obsTuplesOut = r.Counter(obs.Name("score_tuples_out_total", "metric", m))
		v.pub.instrument(r, m)
		v.history.Instrument(
			r.Counter(obs.Name("queue_history_evictions_total", "metric", m)),
			r.Counter(obs.Name("queue_history_drops_total", "metric", m)),
		)
	}
}

// start runs launch unless the vertex is running. launch starts the vertex's
// goroutines on ctx, and the last of them to exit closes done.
func (v *vertex) start(launch func(ctx context.Context, done chan struct{}) error) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.running {
		return fmt.Errorf("score: vertex %s already running", v.metric)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	if err := launch(ctx, done); err != nil {
		cancel()
		return err
	}
	v.cancel, v.done, v.running = cancel, done, true
	return nil
}

// Stop terminates the vertex and waits for its goroutines; it is a no-op
// on a vertex that is not running. It holds no lock a publish can sit behind:
// the cancelled context ends any publish in flight.
func (v *vertex) Stop() {
	v.mu.Lock()
	if !v.running {
		v.mu.Unlock()
		return
	}
	v.running = false
	cancel, done := v.cancel, v.done
	v.mu.Unlock()
	cancel()
	<-done
}

// Metric implements Executor.
func (v *vertex) Metric() telemetry.MetricID { return v.metric }

// Stats returns the operation-anatomy counters.
func (v *vertex) Stats() StatsSnapshot { return v.stats.Snapshot() }

// Health reports the publish-path health: OK while the broker accepts
// tuples, Degraded while store-and-forward is buffering through an outage,
// Failed after FailAfter consecutive errors.
func (v *vertex) Health() HealthSnapshot { return v.pub.snapshot() }

// Latest implements Executor.
func (v *vertex) Latest() (telemetry.Info, bool) { return v.history.Latest() }

// AggregateRange folds the entries with Timestamp in [from, to] from the
// archive's block folds (archive.Log.Aggregate) when the window lies wholly
// below the ring's floor, so the archive holds all of it. ok is false
// otherwise, and the caller scans.
func (v *vertex) AggregateRange(from, to int64) (telemetry.Summary, bool) {
	if v.archive == nil {
		return telemetry.Summary{}, false
	}
	if floor, _, ok := v.history.Floor(); !ok || to >= floor {
		return telemetry.Summary{}, false
	}
	s, err := v.archive.Aggregate(from, to)
	return s, err == nil
}

// errStopScan threads an early-stop request through archive.Log.Range's
// error return without surfacing it to callers.
var errStopScan = errors.New("score: scan stopped")

// ScanRange implements Executor: it serves from the in-memory queue and falls
// back to the persisted archive for evicted entries (§3.1 "the executor
// parses the queue (or the persisted log for evicted entries)"). It streams
// entries with Timestamp in [from, to] to fn — archived (evicted) entries
// first, then the in-memory window — without materializing the merged slice,
// each entry exactly once and in order even while the ring evicts under the
// scan. fn returns false to stop.
//
// The ring's floor and eviction epoch are read at one instant; the archive
// then holds everything at or below the floor that the ring does not, and the
// ring is scanned only if its epoch has not moved. If it has, the tuples
// evicted meanwhile sit in the archive between the old floor and the new one,
// and that sliver is scanned before trying the ring again. Timestamps may
// repeat, so the archive cursor is (lo, seen): everything below lo and the
// first seen tuples at lo are visited. The archive replays equal timestamps
// in append order, so the tuples a re-scan must skip are the first it meets.
func (v *vertex) ScanRange(from, to int64, fn func(telemetry.Info) bool) {
	h, log := v.history, v.archive
	if log == nil {
		h.RangeFunc(from, to, fn)
		return
	}
	lo, seen := from, 0
	for {
		floor, epoch, ok := h.Floor()
		hi := to
		if ok && floor < hi {
			hi = floor
		}
		if lo <= hi {
			skip, atHi, stopped := seen, 0, false
			_ = log.Range(lo, hi, func(i telemetry.Info) error {
				if i.Timestamp == hi {
					atHi++
				}
				if i.Timestamp == lo && skip > 0 {
					skip--
					return nil
				}
				if !fn(i) {
					stopped = true
					return errStopScan
				}
				return nil
			})
			if stopped {
				return
			}
			lo, seen = hi, atHi
		}
		if (ok && floor > to) || h.RangeFuncAt(epoch, from, to, fn) {
			return
		}
	}
}
