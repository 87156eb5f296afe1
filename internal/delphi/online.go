package delphi

import (
	"sync"

	"repro/internal/nn/inference"
)

// Online wraps a trained Model for streaming use inside a Monitor Hook or
// Insight Builder: it keeps the last WindowSize measured values of one
// metric and forecasts values between polls. Until enough history exists it
// falls back to last-value-hold, which is what a non-Delphi Apollo reports
// implicitly between polls anyway.
//
// The hot path is allocation-free: observations land in a mirrored ring
// buffer (two stores, no shifting), prediction normalizes in place and runs
// the model's fused inference engine with instance-owned scratch. A small
// mutex makes Online safe for concurrent use, so Service.PredictAll can read
// vertex-owned instances while their vertices keep observing.
type Online struct {
	mu       sync.Mutex
	eng      *inference.Engine // nil without a trained model: always fall back
	fallback bool              // measured-only mode: drift tripped, model distrusted

	// buf is a mirrored ring: every observation is written at pos and
	// pos+WindowSize, so the last WindowSize values are always contiguous at
	// buf[pos : pos+WindowSize] without ever shifting the window.
	buf [2 * WindowSize]float64
	pos int // next write slot, in [0, WindowSize)
	n   int // observations recorded, saturating at WindowSize

	norm    [WindowSize]float64 // normalized-window scratch
	scratch [NumStacked]float64 // engine head scratch

	// memoP and memoScale are the forecast of the window as it stands: a poll
	// asks for it twice (PredictState, then PredictTicksInto) and pays for
	// one forward. Whatever a forecast depends on — Observe, SetFallback,
	// SwapModel — clears memoOK.
	memoP, memoScale float64
	memoOK           bool
}

// NewOnline wraps model (which may be nil or untrained; then Predict always
// falls back to last-value-hold).
func NewOnline(model *Model) *Online {
	o := &Online{}
	if model != nil {
		if eng, err := model.Engine(); err == nil {
			o.eng = eng
		}
	}
	return o
}

// Observe records a measured value.
func (o *Online) Observe(v float64) {
	o.mu.Lock()
	o.buf[o.pos] = v
	o.buf[o.pos+WindowSize] = v
	o.pos++
	if o.pos == WindowSize {
		o.pos = 0
	}
	if o.n < WindowSize {
		o.n++
	}
	o.memoOK = false
	o.mu.Unlock()
}

// Ready reports whether a full window of measurements and a usable, trusted
// model exist. In measured-only fallback (SetFallback) it reports false, so
// vertices stop publishing predictions without any extra branching.
func (o *Online) Ready() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n == WindowSize && o.eng != nil && !o.fallback
}

// SetFallback flips measured-only mode: while on, Predict and the fill paths
// behave as if no model existed (last-value-hold, ok=false), so callers fall
// back to measured values only. Drift detectors flip it on when the model's
// error distribution shifts; the retrainer flips it off after promoting a
// model that validates on live data. Observations keep accumulating either
// way, so recovery is instant.
func (o *Online) SetFallback(on bool) {
	o.mu.Lock()
	o.fallback = on
	o.memoOK = false
	o.mu.Unlock()
}

// InFallback reports whether measured-only mode is active.
func (o *Online) InFallback() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fallback
}

// SwapModel atomically replaces the model this instance predicts with — the
// promotion path of the model registry. The observation window survives the
// swap, so the next Predict runs the new model on the same live history. The
// engine is compiled (once per model, cached) before the instance lock is
// taken, so concurrent Predict/Observe callers are blocked only for the
// pointer swap itself — promotion never stalls the steady-state predict
// path, and the swap allocates nothing on it.
func (o *Online) SwapModel(m *Model) error {
	if m == nil {
		return ErrNotTrained
	}
	eng, err := m.Engine()
	if err != nil {
		return err
	}
	o.mu.Lock()
	o.eng, o.memoOK = eng, false
	o.mu.Unlock()
	return nil
}

// Observed reports how many values the window currently holds (saturating at
// WindowSize). A restarted vertex uses it to decide whether to backfill the
// window from retained history.
func (o *Online) Observed() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n
}

// lastLocked returns the most recent observation. Callers hold o.mu and have
// checked o.n > 0.
func (o *Online) lastLocked() float64 {
	return o.buf[(o.pos+WindowSize-1)%WindowSize]
}

// Predict forecasts the next value. Before the window fills (or without a
// model) it returns the last observed value and ok=false; with no
// observations at all it returns (0, false).
//
// Predictions are clamped to the window's envelope expanded by one window
// span: a one-step forecast farther out than that is extrapolation noise,
// and the clamp keeps closed-loop use (feeding predictions back as
// pseudo-observations) from diverging.
func (o *Online) Predict() (v float64, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, _, ok := o.predictLocked()
	return p, ok
}

// PredictState is Predict returning additionally the window's normalization
// scale (max absolute deviation from the window mean). Drift detectors
// normalize the eventual residual by it, so prediction error is tracked in
// the same unit-free space the model predicts in.
func (o *Online) PredictState() (v, scale float64, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.predictLocked()
}

func (o *Online) predictLocked() (float64, float64, bool) {
	if o.n < WindowSize || o.eng == nil || o.fallback {
		if o.n == 0 {
			return 0, 0, false
		}
		return o.lastLocked(), 0, false
	}
	if o.memoOK {
		return o.memoP, o.memoScale, true
	}
	w := o.buf[o.pos : o.pos+WindowSize]
	loc, scale := NormalizeInto(o.norm[:], w)
	p := o.eng.Forward(o.norm[:], o.scratch[:])*scale + loc
	lo, hi := w[0], w[0]
	for _, v := range w[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if p > hi+span {
		p = hi + span
	}
	if p < lo-span {
		p = lo - span
	}
	o.memoP, o.memoScale, o.memoOK = p, scale, true
	return p, scale, true
}

// PredictTicksInto forecasts the metric at the `steps` base-tick instants
// that lie between the poll that was just observed and the next poll,
// appending them to a caller-reused buffer. The model observes at poll
// cadence, so its one-step-ahead forecast targets the next poll; the
// intermediate ticks interpolate linearly toward it. (Feeding the model's
// poll-cadence trajectory directly to base ticks would replay the whole
// inter-poll change at every tick.) One fused predict, then interpolation:
// the steady-state fill path of a Fact Vertex does zero heap allocations.
func (o *Online) PredictTicksInto(out []float64, steps int) []float64 {
	if steps < 1 {
		return out
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	next, _, ok := o.predictLocked()
	var last float64
	if o.n > 0 {
		last = o.lastLocked()
	}
	if !ok {
		for i := 0; i < steps; i++ {
			out = append(out, last)
		}
		return out
	}
	for i := 0; i < steps; i++ {
		frac := float64(i+1) / float64(steps+1)
		out = append(out, last+(next-last)*frac)
	}
	return out
}
