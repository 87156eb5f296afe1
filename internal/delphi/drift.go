package delphi

import "sync"

// The detector's policy. Thresholds are in normalized residual units
// (|actual − forecast| / window scale), the same unit-free space the model
// predicts in, so one policy works across metrics of wildly different
// magnitudes.
const (
	// driftAlpha is the EWMA smoothing factor for the normalized absolute
	// residual. Larger reacts faster, noisier.
	driftAlpha = 0.25
	// driftThreshold trips the detector when the residual EWMA exceeds it. A
	// well-fit Delphi model tracks at roughly 0.1–0.3.
	driftThreshold = 0.9
	// driftPHDelta is the Page–Hinkley magnitude tolerance: residual
	// excursions smaller than this above the running mean accumulate nothing.
	driftPHDelta = 0.05
	// driftPHLambda is the Page–Hinkley trip threshold on the cumulative
	// deviation statistic.
	driftPHLambda = 4
	// driftMinSamples is how many residuals must be observed before either
	// test may trip, so a cold detector cannot fire off warm-up noise.
	driftMinSamples = 2 * WindowSize
)

// Detector is a per-metric online prediction-error tracker: an EWMA of the
// normalized absolute residual catches sustained error-level shifts, and a
// Page–Hinkley change-point statistic catches gradual upward drifts the EWMA
// threshold alone would admit. When either trips, the owning vertex flips to
// measured-only fallback and a retrain is enqueued; the detector stays
// tripped (and stops accumulating) until Reset, which the promotion path
// calls after a better model validates.
//
// The detector is clockless and fully deterministic: state advances only on
// Observe, so virtual-time scenarios and golden tests replay it exactly. It
// is internally synchronized — the vertex goroutine observes while the
// retrain manager reads and resets.
type Detector struct {
	mu sync.Mutex

	n       int     // residuals observed since Reset
	ewma    float64 // EWMA of normalized |residual|
	mean    float64 // running mean of normalized |residual| (Page–Hinkley)
	cum     float64 // cumulative deviation above mean+delta
	cumMin  float64 // minimum of cum so far
	tripped bool
}

// NewDetector builds a detector.
func NewDetector() *Detector { return &Detector{} }

// Observe records one prediction residual (actual − forecast, raw units)
// with the window normalization scale the forecast was made under, and
// reports whether this observation tripped the detector (the transition
// only: once tripped, Observe keeps returning false and state freezes until
// Reset). A non-positive scale degenerates to 1 so constant windows cannot
// divide by zero.
func (d *Detector) Observe(residual, scale float64) bool {
	if scale <= 0 {
		scale = 1
	}
	r := residual / scale
	if r < 0 {
		r = -r
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tripped {
		return false
	}
	d.n++
	d.ewma += driftAlpha * (r - d.ewma)
	// Page–Hinkley on the positive side: accumulate excursions of the
	// residual above its running mean plus the tolerance; a sustained upward
	// shift drives cum − cumMin past lambda.
	d.mean += (r - d.mean) / float64(d.n)
	d.cum += r - d.mean - driftPHDelta
	if d.cum < d.cumMin {
		d.cumMin = d.cum
	}
	if d.n >= driftMinSamples &&
		(d.ewma > driftThreshold || d.cum-d.cumMin > driftPHLambda) {
		d.tripped = true
		return true
	}
	return false
}

// Reset clears all statistics and the trip latch — called after a retrained
// model is promoted, so the detector judges the new model from scratch.
func (d *Detector) Reset() {
	d.mu.Lock()
	d.n, d.ewma, d.mean, d.cum, d.cumMin, d.tripped = 0, 0, 0, 0, 0, false
	d.mu.Unlock()
}
