package delphi

import "sync"

// DriftConfig tunes a Detector. The zero value means defaults; thresholds
// are in normalized residual units (|actual − forecast| / window scale), the
// same unit-free space the model predicts in, so one configuration works
// across metrics of wildly different magnitudes.
type DriftConfig struct {
	// Alpha is the EWMA smoothing factor for the normalized absolute
	// residual (default 0.25). Larger reacts faster, noisier.
	Alpha float64
	// Threshold trips the detector when the residual EWMA exceeds it
	// (default 0.9). A well-fit Delphi model tracks at roughly 0.1–0.3.
	Threshold float64
	// PHDelta is the Page–Hinkley magnitude tolerance: residual excursions
	// smaller than this above the running mean accumulate nothing
	// (default 0.05).
	PHDelta float64
	// PHLambda is the Page–Hinkley trip threshold on the cumulative
	// deviation statistic (default 4).
	PHLambda float64
	// MinSamples is how many residuals must be observed before either test
	// may trip (default 2×WindowSize), so a cold detector cannot fire off
	// warm-up noise.
	MinSamples int
}

func (c *DriftConfig) fill() {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.9
	}
	if c.PHDelta <= 0 {
		c.PHDelta = 0.05
	}
	if c.PHLambda <= 0 {
		c.PHLambda = 4
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 2 * WindowSize
	}
}

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
	mu  sync.Mutex
	cfg DriftConfig

	n       int     // residuals observed since Reset
	ewma    float64 // EWMA of normalized |residual|
	mean    float64 // running mean of normalized |residual| (Page–Hinkley)
	cum     float64 // cumulative deviation above mean+delta
	cumMin  float64 // minimum of cum so far
	tripped bool
}

// NewDetector builds a detector; zero-valued cfg fields take defaults.
func NewDetector(cfg DriftConfig) *Detector {
	cfg.fill()
	return &Detector{cfg: cfg}
}

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
	d.ewma += d.cfg.Alpha * (r - d.ewma)
	// Page–Hinkley on the positive side: accumulate excursions of the
	// residual above its running mean plus the tolerance; a sustained upward
	// shift drives cum − cumMin past lambda.
	d.mean += (r - d.mean) / float64(d.n)
	d.cum += r - d.mean - d.cfg.PHDelta
	if d.cum < d.cumMin {
		d.cumMin = d.cum
	}
	if d.n >= d.cfg.MinSamples &&
		(d.ewma > d.cfg.Threshold || d.cum-d.cumMin > d.cfg.PHLambda) {
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
