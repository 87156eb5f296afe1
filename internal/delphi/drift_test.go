package delphi

import (
	"math"
	"testing"
)

// driveDetector feeds residuals (with unit scale) and returns the index that
// tripped the detector, or -1.
func driveDetector(d *Detector, residuals []float64) int {
	for i, r := range residuals {
		if d.Observe(r, 1) {
			return i
		}
	}
	return -1
}

// noise is a deterministic pseudo-residual stream in [-amp, amp] — a cheap
// seeded LCG, so golden trip indices are stable across runs and platforms.
func noise(n int, amp float64, seed uint64) []float64 {
	out := make([]float64, n)
	s := seed
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		u := float64(s>>11) / float64(1<<53) // [0, 1)
		out[i] = (2*u - 1) * amp
	}
	return out
}

func TestDetectorStationaryNoFalsePositive(t *testing.T) {
	// A healthy model: small noisy residuals, forever. Neither the EWMA
	// threshold nor Page–Hinkley may ever trip.
	d := NewDetector()
	if idx := driveDetector(d, noise(5000, 0.3, 1)); idx >= 0 {
		t.Fatalf("stationary residuals tripped at %d (ewma %.3f)", idx, d.ewma)
	}
	if d.tripped {
		t.Fatal("detector latched without a trip")
	}
}

func TestDetectorStepChangeGolden(t *testing.T) {
	// Residual steps from quiet 0.2-noise to a sustained 1.5 level at index
	// 100 — the EWMA crosses the threshold within a handful of samples. The
	// exact trip index is golden: the detector is deterministic, so a change
	// in smoothing or thresholds must show up here.
	series := append(noise(100, 0.2, 2), make([]float64, 50)...)
	for i := 100; i < len(series); i++ {
		series[i] = 1.5
	}
	d := NewDetector()
	idx := driveDetector(d, series)
	if idx != 102 {
		t.Fatalf("step trip index %d, want 102", idx)
	}
	if !d.tripped {
		t.Fatal("trip not latched")
	}
	// Latched: further observations are frozen and never re-trip.
	for i := 0; i < 10; i++ {
		if d.Observe(5, 1) {
			t.Fatal("latched detector re-tripped")
		}
	}
	// Reset rearms.
	d.Reset()
	if d.tripped {
		t.Fatal("reset kept the latch")
	}
	if idx := driveDetector(d, series); idx != 102 {
		t.Fatalf("post-reset trip index %d, want 102", idx)
	}
}

func TestDetectorSlowRampGolden(t *testing.T) {
	// Residuals ramp from 0.1 to 0.85 over 400 samples — always below the
	// EWMA threshold, so only Page–Hinkley's cumulative statistic can catch
	// the gradual degradation.
	series := make([]float64, 400)
	for i := range series {
		series[i] = 0.1 + 0.75*float64(i)/float64(len(series)-1)
	}
	d := NewDetector()
	idx := driveDetector(d, series)
	if idx != 145 {
		t.Fatalf("ramp trip index %d, want 145", idx)
	}
	if d.ewma >= driftThreshold {
		t.Fatalf("ramp tripped via EWMA (%.3f), want Page–Hinkley", d.ewma)
	}
}

func TestDetectorWarmupGuard(t *testing.T) {
	// Huge residuals immediately: nothing may trip before the tenth
	// (2×WindowSize) residual.
	d := NewDetector()
	for i := 0; i < 9; i++ {
		if d.Observe(10, 1) {
			t.Fatalf("tripped during warm-up at %d", i)
		}
	}
	if !d.Observe(10, 1) {
		t.Fatal("did not trip at the tenth residual")
	}
}

func TestDetectorScaleNormalization(t *testing.T) {
	// The same relative error at wildly different magnitudes must behave
	// identically: residual 1000 at scale 10000 is a 0.1 normalized error.
	d := NewDetector()
	for i := 0; i < 1000; i++ {
		if d.Observe(1000, 10000) {
			t.Fatal("small relative error tripped")
		}
	}
	// Non-positive scale degenerates to 1 (constant windows).
	d2 := NewDetector()
	trippedAt := -1
	for i := 0; i < 100; i++ {
		if d2.Observe(2, 0) {
			trippedAt = i
			break
		}
	}
	if trippedAt < 0 {
		t.Fatal("unscaled large residuals never tripped")
	}
	// Negative residuals count by magnitude.
	d3 := NewDetector()
	tripped := false
	for i := 0; i < 100 && !tripped; i++ {
		tripped = d3.Observe(-2, 1)
	}
	if !tripped {
		t.Fatal("negative residuals ignored")
	}
}

func TestDetectorDeterministicReplay(t *testing.T) {
	// Two detectors fed the same stream agree bit-for-bit at every step —
	// the property the byte-reproducible drift scenario stands on.
	series := noise(2000, 0.6, 7)
	a, b := NewDetector(), NewDetector()
	for i, r := range series {
		ta, tb := a.Observe(r, 1), b.Observe(r, 1)
		if ta != tb || math.Float64bits(a.ewma) != math.Float64bits(b.ewma) {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
