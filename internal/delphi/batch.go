package delphi

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/nn/inference"
	"repro/internal/obs"
)

// BatchPrediction is one member's result from a BatchPredictor sweep. OK
// mirrors Online.Predict: false means the member fell back to last-value-hold
// (window not full, measured-only fallback, or an engine other than the
// sweep's; with no observations Value is 0).
type BatchPrediction struct {
	Value float64
	OK    bool
}

// DefaultBatchWorkers caps the worker-pool size NewBatchPredictor picks for
// workers <= 0; the actual default is min(DefaultBatchWorkers, GOMAXPROCS) —
// on a single-core box the pool would only add dispatch overhead, so the
// sweep runs inline. An explicit workers count is honored as given.
const DefaultBatchWorkers = 4

// batchChunkMin is the smallest per-worker member range worth dispatching;
// below workers*batchChunkMin the sweep runs inline on the caller.
const batchChunkMin = 64

// BatchPredictor is the sweep machinery of one device class: it predicts for
// many per-metric Online instances in fused batched sweeps. Windows are gathered
// and normalized into one row-major arena, run through the engine's
// ForwardBatch, then denormalized and
// envelope-clamped exactly like Online.Predict, so batched results are
// bit-identical to per-instance ones.
//
// It holds no members and no model: the class owns both and hands them to
// every PredictAll, under the lock that also orders its membership changes
// and promotions. Large classes are partitioned across a small pool of
// persistent workers; each worker owns a disjoint slice of every per-call
// arena, so the sweep is race-free and allocation-free in steady state.
// PredictAll must not be called concurrently with PredictAll (one sweeper per
// device class).
type BatchPredictor struct {
	workers int

	// Per-sweep arenas, indexed by member row; grown in PredictAll when the
	// class grew, then stable — the steady-state sweep allocates nothing.
	xs     []float64 // gathered normalized windows, row-major WindowSize each
	locs   []float64
	scales []float64
	los    []float64 // window envelope, for the clamp
	his    []float64
	outs   []float64
	idxs   []int // member index per gathered row (ready members compact per chunk)
	headsS []float64

	work     chan batchChunk
	wg       sync.WaitGroup
	stopOnce sync.Once

	obsPredictSec  *obs.Histogram
	obsBatchSize   *obs.Histogram
	obsPredictions *obs.Counter
}

// batchChunk is one worker's share of a sweep: members [lo, hi), evaluated
// with eng, their results written to dst.
type batchChunk struct {
	dst     []BatchPrediction
	eng     *inference.Engine
	members []*Online
	lo, hi  int
}

// NewBatchPredictor builds a predictor with the given worker-pool size (<=0:
// DefaultBatchWorkers; 1 runs every sweep inline, no goroutines).
func NewBatchPredictor(workers int) *BatchPredictor {
	if workers <= 0 {
		workers = min(DefaultBatchWorkers, runtime.GOMAXPROCS(0))
	}
	bp := &BatchPredictor{workers: workers}
	if workers > 1 {
		bp.work = make(chan batchChunk, workers)
		for i := 0; i < workers; i++ {
			go bp.worker()
		}
	}
	return bp
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

// PredictAll sweeps members with eng and appends one BatchPrediction per
// member, in member order, to dst (pass dst[:0] to reuse; with enough
// capacity the sweep performs zero heap allocations). A member whose Online
// predicts with an engine other than eng — one a promotion has not reached —
// is reported not ready and never mixed into the batch; every other result is
// bit-identical to calling Predict on the member. The members may keep being
// observed by their vertices: Online is internally synchronized.
func (bp *BatchPredictor) PredictAll(dst []BatchPrediction, eng *inference.Engine, members []*Online) []BatchPrediction {
	start := time.Now()
	n := len(members)
	if n == 0 {
		return dst
	}
	bp.grow(n, eng)
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, BatchPrediction{})
	}
	sweep := batchChunk{dst: dst[base:], eng: eng, members: members, hi: n}

	ready := 0
	if bp.workers > 1 && n >= bp.workers*batchChunkMin {
		per := (n + bp.workers - 1) / bp.workers
		for lo := 0; lo < n; lo += per {
			sweep.lo, sweep.hi = lo, min(lo+per, n)
			bp.wg.Add(1)
			bp.work <- sweep
		}
		bp.wg.Wait()
		for _, p := range sweep.dst {
			if p.OK {
				ready++
			}
		}
	} else {
		ready = bp.runChunk(sweep)
	}

	bp.obsPredictSec.ObserveDuration(time.Since(start))
	bp.obsBatchSize.Observe(float64(ready))
	bp.obsPredictions.Add(uint64(n))
	return dst
}

// grow sizes the per-sweep arenas for n members. Arenas only ever grow, and
// sweeps never run concurrently.
func (bp *BatchPredictor) grow(n int, eng *inference.Engine) {
	if len(bp.outs) < n {
		bp.xs = make([]float64, n*WindowSize)
		bp.locs = make([]float64, n)
		bp.scales = make([]float64, n)
		bp.los = make([]float64, n)
		bp.his = make([]float64, n)
		bp.outs = make([]float64, n)
		bp.idxs = make([]int, n)
	}
	if eng != nil && len(bp.headsS) < eng.BatchScratchSize(n) {
		bp.headsS = make([]float64, eng.BatchScratchSize(n))
	}
}

func (bp *BatchPredictor) worker() {
	for c := range bp.work {
		bp.runChunk(c)
		bp.wg.Done()
	}
}

// runChunk gathers, batch-evaluates, and finishes members [c.lo, c.hi).
// Ready windows compact to the front of the chunk's arena region, so one
// ForwardBatch covers them all. Returns how many members were ready.
func (bp *BatchPredictor) runChunk(c batchChunk) int {
	lo, k := c.lo, 0 // k: ready rows gathered, offset from lo
	for s := lo; s < c.hi; s++ {
		o := c.members[s]
		o.mu.Lock()
		if o.n == WindowSize && o.eng != nil && o.eng == c.eng && !o.fallback {
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
			c.dst[s].Value = o.lastLocked()
		}
		o.mu.Unlock()
	}
	if k == 0 {
		return 0
	}
	heads := c.eng.Heads()
	c.eng.ForwardBatch(
		bp.outs[lo:lo+k],
		bp.xs[lo*WindowSize:(lo+k)*WindowSize],
		bp.headsS[lo*heads:(lo+k)*heads],
	)
	for j := 0; j < k; j++ {
		row := lo + j
		p := bp.outs[row]*bp.scales[row] + bp.locs[row]
		span := bp.his[row] - bp.los[row]
		if p > bp.his[row]+span {
			p = bp.his[row] + span
		}
		if p < bp.los[row]-span {
			p = bp.los[row] - span
		}
		c.dst[bp.idxs[row]] = BatchPrediction{Value: p, OK: true}
	}
	return k
}

// Close stops the worker pool. The predictor must not be used after Close.
func (bp *BatchPredictor) Close() {
	bp.stopOnce.Do(func() {
		if bp.work != nil {
			close(bp.work)
		}
	})
}
