package delphi

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/nn/inference"
	"repro/internal/obs"
)

// BatchPrediction is one slot's result from a BatchPredictor sweep. OK
// mirrors Online.Predict: false means the slot fell back to last-value-hold
// (window not full, or no observations — then Value is 0).
type BatchPrediction struct {
	Slot  int
	Value float64
	OK    bool
}

// ErrModelMismatch is returned by Register for an Online wrapping a
// different model than the predictor's.
var ErrModelMismatch = errors.New("delphi: online instance wraps a different model")

// DefaultBatchWorkers caps the worker-pool size NewBatchPredictor picks for
// workers <= 0; the actual default is min(DefaultBatchWorkers, GOMAXPROCS) —
// on a single-core box the pool would only add dispatch overhead, so the
// sweep runs inline. An explicit workers count is honored as given.
const DefaultBatchWorkers = 4

// batchChunkMin is the smallest per-worker slot range worth dispatching;
// below workers*batchChunkMin the sweep runs inline on the caller.
const batchChunkMin = 64

// BatchPredictor groups many per-metric Online instances that share one
// trained Model — one device class, the sharding precursor for fleet-scale
// Delphi (ROADMAP item 4) — and predicts for all of them in fused batched
// sweeps: windows are gathered and normalized into one row-major arena, run
// through the engine's ForwardBatch (head-major, cache-blocked), then
// denormalized and envelope-clamped exactly like Online.Predict, so batched
// results are bit-identical to per-instance ones.
//
// Large fleets are partitioned across a small pool of persistent workers;
// each worker owns a disjoint slice of every per-call arena, so the sweep is
// race-free and allocation-free in steady state. Register is safe against
// concurrent PredictAll; PredictAll itself must not be called concurrently
// with PredictAll (one sweeper per device class).
type BatchPredictor struct {
	model   *Model
	eng     *inference.Engine
	workers int

	mu    sync.RWMutex
	slots []*Online

	// Per-sweep arenas, indexed by slot row; grown in PredictAll when slots
	// were added, then stable — the steady-state sweep allocates nothing.
	xs     []float64 // gathered normalized windows, row-major WindowSize each
	locs   []float64
	scales []float64
	los    []float64 // window envelope, for the clamp
	his    []float64
	outs   []float64
	idxs   []int // slot index per gathered row (ready slots compact per chunk)
	headsS []float64

	dst []BatchPrediction // the caller's result slice, shared with workers per sweep

	work     chan batchChunk
	wg       sync.WaitGroup
	stopOnce sync.Once

	obsPredictSec  *obs.Histogram
	obsBatchSize   *obs.Histogram
	obsPredictions *obs.Counter
}

type batchChunk struct{ lo, hi int }

// NewBatchPredictor builds a predictor over model's fused engine with the
// given worker-pool size (<=0: DefaultBatchWorkers; 1 runs every sweep
// inline, no goroutines). It fails with ErrNotTrained on an untrained model.
func NewBatchPredictor(model *Model, workers int) (*BatchPredictor, error) {
	if model == nil {
		return nil, ErrNotTrained
	}
	eng, err := model.Engine()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = DefaultBatchWorkers
		if p := runtime.GOMAXPROCS(0); workers > p {
			workers = p
		}
	}
	bp := &BatchPredictor{model: model, eng: eng, workers: workers}
	if workers > 1 {
		bp.work = make(chan batchChunk, workers)
		for i := 0; i < workers; i++ {
			go bp.worker()
		}
	}
	return bp, nil
}

// Instrument registers the predictor's instruments, labelled by device
// class: delphi_predict_seconds (sweep latency), delphi_batch_size (ready
// windows per sweep), delphi_predictions_total.
func (bp *BatchPredictor) Instrument(r *obs.Registry, class string) {
	bp.obsPredictSec = r.Histogram(obs.Name("delphi_predict_seconds", "class", class))
	bp.obsBatchSize = r.Histogram(obs.Name("delphi_batch_size", "class", class),
		1, 8, 64, 256, 1024, 4096, 16384)
	bp.obsPredictions = r.Counter(obs.Name("delphi_predictions_total", "class", class))
}

// Register adds an Online instance to the sweep and returns its slot index.
// The instance must wrap the predictor's model (same device class). The
// instance may keep being observed by its owning vertex — Online is
// internally synchronized.
func (bp *BatchPredictor) Register(o *Online) (int, error) {
	if o == nil || o.model != bp.model {
		return 0, ErrModelMismatch
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.slots = append(bp.slots, o)
	return len(bp.slots) - 1, nil
}

// Slots reports how many instances are registered.
func (bp *BatchPredictor) Slots() int {
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	return len(bp.slots)
}

// PredictAll sweeps every registered slot and appends one BatchPrediction
// per slot to dst (pass dst[:0] to reuse; with enough capacity the sweep
// performs zero heap allocations). Results are bit-identical to calling
// Predict on each instance.
func (bp *BatchPredictor) PredictAll(dst []BatchPrediction) []BatchPrediction {
	start := time.Now()
	bp.mu.RLock()
	defer bp.mu.RUnlock()
	n := len(bp.slots)
	if n == 0 {
		return dst
	}
	bp.grow(n)
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, BatchPrediction{Slot: i})
	}
	bp.dst = dst[base:]

	ready := 0
	if bp.workers > 1 && n >= bp.workers*batchChunkMin {
		per := (n + bp.workers - 1) / bp.workers
		for lo := 0; lo < n; lo += per {
			hi := lo + per
			if hi > n {
				hi = n
			}
			bp.wg.Add(1)
			bp.work <- batchChunk{lo, hi}
		}
		bp.wg.Wait()
		for row := range bp.dst {
			if bp.dst[row].OK {
				ready++
			}
		}
	} else {
		ready = bp.runChunk(0, n)
	}
	bp.dst = nil

	bp.obsPredictSec.ObserveDuration(time.Since(start))
	bp.obsBatchSize.Observe(float64(ready))
	bp.obsPredictions.Add(uint64(n))
	return dst
}

// grow sizes the per-sweep arenas for n slots. Caller holds at least the
// read lock; arenas only ever grow, and sweeps never run concurrently.
func (bp *BatchPredictor) grow(n int) {
	if len(bp.outs) >= n {
		return
	}
	bp.xs = make([]float64, n*WindowSize)
	bp.locs = make([]float64, n)
	bp.scales = make([]float64, n)
	bp.los = make([]float64, n)
	bp.his = make([]float64, n)
	bp.outs = make([]float64, n)
	bp.idxs = make([]int, n)
	bp.headsS = make([]float64, bp.eng.BatchScratchSize(n))
}

func (bp *BatchPredictor) worker() {
	for c := range bp.work {
		bp.runChunk(c.lo, c.hi)
		bp.wg.Done()
	}
}

// runChunk gathers, batch-evaluates, and finishes slots [lo, hi). Ready
// windows compact to the front of the chunk's arena region, so one
// ForwardBatch covers them all. Returns how many slots were ready.
func (bp *BatchPredictor) runChunk(lo, hi int) int {
	k := 0 // ready rows gathered, offset from lo
	for s := lo; s < hi; s++ {
		o := bp.slots[s]
		o.mu.Lock()
		if o.n == WindowSize && o.eng != nil && !o.fallback {
			row := lo + k
			w := o.buf[o.pos : o.pos+WindowSize]
			bp.locs[row], bp.scales[row] = NormalizeInto(bp.xs[row*WindowSize:(row+1)*WindowSize], w)
			wlo, whi := w[0], w[0]
			for _, v := range w[1:] {
				if v < wlo {
					wlo = v
				}
				if v > whi {
					whi = v
				}
			}
			bp.los[row], bp.his[row] = wlo, whi
			bp.idxs[row] = s
			k++
		} else if o.n > 0 {
			bp.dst[s].Value = o.lastLocked()
		}
		o.mu.Unlock()
	}
	if k == 0 {
		return 0
	}
	heads := bp.eng.Heads()
	bp.eng.ForwardBatch(
		bp.outs[lo:lo+k],
		bp.xs[lo*WindowSize:(lo+k)*WindowSize],
		bp.headsS[lo*heads:(lo+k)*heads],
	)
	for j := 0; j < k; j++ {
		row := lo + j
		s := bp.idxs[row]
		p := bp.outs[row]*bp.scales[row] + bp.locs[row]
		span := bp.his[row] - bp.los[row]
		if p > bp.his[row]+span {
			p = bp.his[row] + span
		}
		if p < bp.los[row]-span {
			p = bp.los[row] - span
		}
		bp.dst[s] = BatchPrediction{Slot: s, Value: p, OK: true}
	}
	return k
}

// SwapModel atomically replaces the device class's model — the promotion
// path. The engine is compiled before the sweep lock is taken, so in-flight
// PredictAll sweeps (which hold the read lock end to end) finish on the old
// engine and the very next sweep runs the new one; every registered Online
// instance is swapped under the same write lock, so a sweep can never mix
// engines. Observers are only ever blocked for the pointer swaps.
func (bp *BatchPredictor) SwapModel(m *Model) error {
	if m == nil {
		return ErrNotTrained
	}
	eng, err := m.Engine()
	if err != nil {
		return err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.model = m
	bp.eng = eng
	for _, o := range bp.slots {
		o.swap(m, eng)
	}
	return nil
}

// Close stops the worker pool. The predictor must not be used after Close.
func (bp *BatchPredictor) Close() {
	bp.stopOnce.Do(func() {
		if bp.work != nil {
			close(bp.work)
		}
	})
}
