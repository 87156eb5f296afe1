package delphi

import "math"

// WindowSize is the input window of every Delphi model (the paper trains
// with "a window size of five").
const WindowSize = 5

// NormalizeInto maps a raw window to zero-mean, unit-scale model space: it
// writes the normalized window into dst (which must have the window's length;
// it may alias window) and returns the (loc, scale) needed to map predictions
// back. A degenerate window (constant) gets scale 1 so the models see
// all-zeros and predict 0, which denormalizes to the constant — exactly
// right. Comparison baselines (the Fig. 11 LSTMs) share it so errors are
// measured in the same units.
func NormalizeInto(dst, window []float64) (loc, scale float64) {
	if len(dst) != len(window) {
		panic("delphi: NormalizeInto dst/window length mismatch")
	}
	if len(window) == WindowSize {
		return normalizeInto5(dst[:WindowSize], window[:WindowSize])
	}
	loc = 0
	for _, v := range window {
		loc += v
	}
	loc /= float64(len(window))
	scale = 0
	for _, v := range window {
		if d := math.Abs(v - loc); d > scale {
			scale = d
		}
	}
	if scale < 1e-12 {
		scale = 1
	}
	for i, v := range window {
		dst[i] = (v - loc) / scale
	}
	return loc, scale
}

// normalizeInto5 is NormalizeInto unrolled for the production window size —
// every value stays in registers across the mean, max-abs, and scale passes.
// The accumulation order matches the generic loops exactly (left-to-right
// sum, then per-element comparisons), so results are bit-identical.
func normalizeInto5(dst, window []float64) (loc, scale float64) {
	w0, w1, w2, w3, w4 := window[0], window[1], window[2], window[3], window[4]
	loc = (w0 + w1 + w2 + w3 + w4) / 5
	scale = 0
	if d := math.Abs(w0 - loc); d > scale {
		scale = d
	}
	if d := math.Abs(w1 - loc); d > scale {
		scale = d
	}
	if d := math.Abs(w2 - loc); d > scale {
		scale = d
	}
	if d := math.Abs(w3 - loc); d > scale {
		scale = d
	}
	if d := math.Abs(w4 - loc); d > scale {
		scale = d
	}
	if scale < 1e-12 {
		scale = 1
	}
	dst[0] = (w0 - loc) / scale
	dst[1] = (w1 - loc) / scale
	dst[2] = (w2 - loc) / scale
	dst[3] = (w3 - loc) / scale
	dst[4] = (w4 - loc) / scale
	return loc, scale
}

// Windows slices a series into (window, next-value) supervised pairs in
// normalized space. Targets share each window's normalization so the model
// learns shape, not magnitude. All windows share one contiguous backing
// buffer (three allocations total instead of one per window).
func Windows(series []float64, window int) (xs [][]float64, ys []float64) {
	if window < 1 || len(series) <= window {
		return nil, nil
	}
	n := len(series) - window
	backing := make([]float64, n*window)
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		norm := backing[i*window : (i+1)*window : (i+1)*window]
		loc, scale := NormalizeInto(norm, series[i:i+window])
		xs[i] = norm
		ys[i] = (series[i+window] - loc) / scale
	}
	return xs, ys
}
