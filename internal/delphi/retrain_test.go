package delphi

import (
	"errors"
	"math"
	"testing"
)

// squareSegments builds n-point alternating square-wave segments around a
// base level — the drifted regime every retrain test uses: unpredictable for
// a generically trained combiner, exactly learnable from a 5-wide window.
func squareSegments(n int, levels ...float64) [][]float64 {
	segs := make([][]float64, len(levels))
	for s, base := range levels {
		seg := make([]float64, n)
		for i := range seg {
			seg[i] = base + 8
			if i%2 == 1 {
				seg[i] = base - 8
			}
		}
		segs[s] = seg
	}
	return segs
}

// TestRetrainCombinerImproves retrains on drifted data and checks the
// candidate beats the base on the holdout by the required margin, while the
// base model itself is untouched (the frozen heads are cloned, not shared).
func TestRetrainCombinerImproves(t *testing.T) {
	base := trained(t)
	window := make([]float64, WindowSize)
	for i := range window {
		window[i] = 50 + 8*math.Pow(-1, float64(i))
	}
	before, err := base.Predict(window)
	if err != nil {
		t.Fatal(err)
	}

	cand, rep, err := RetrainCombiner(base, squareSegments(128, 40, 60), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Improved {
		t.Fatalf("no improvement: base %.4f candidate %.4f", rep.BaseRMSE, rep.CandidateRMSE)
	}
	if rep.CandidateRMSE >= rep.BaseRMSE {
		t.Fatalf("report inconsistent: candidate %.4f >= base %.4f", rep.CandidateRMSE, rep.BaseRMSE)
	}
	if rep.TrainWindows == 0 || rep.HoldoutWindows == 0 {
		t.Fatalf("empty split: %+v", rep)
	}

	// The candidate is a usable model in its own right.
	if _, err := cand.Predict(window); err != nil {
		t.Fatalf("candidate predict: %v", err)
	}
	// Retraining must not touch the base model's layers.
	after, err := base.Predict(window)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before) != math.Float64bits(after) {
		t.Fatalf("retraining mutated the base model: %v -> %v", before, after)
	}
}

// TestRetrainCombinerInsufficientData checks the typed error on thin
// datasets so the trainer can re-enqueue instead of promoting garbage.
func TestRetrainCombinerInsufficientData(t *testing.T) {
	_, _, err := RetrainCombiner(trained(t), squareSegments(8, 50), 5)
	if !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v, want ErrInsufficientData", err)
	}
	if _, _, err := RetrainCombiner(trained(t), nil, 5); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("nil segments: err = %v, want ErrInsufficientData", err)
	}
}

// TestRetrainCombinerDeterministic checks that equal inputs yield
// bit-identical candidates and reports — the property the scenario digests
// and the registry's canonical encoding rely on.
func TestRetrainCombinerDeterministic(t *testing.T) {
	base := trained(t)
	segs := squareSegments(128, 40, 60)
	c1, r1, err := RetrainCombiner(base, segs, 9)
	if err != nil {
		t.Fatal(err)
	}
	c2, r2, err := RetrainCombiner(base, segs, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("reports diverged: %+v vs %+v", r1, r2)
	}
	b1, err := c1.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c2.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("same seed produced different candidate encodings")
	}
	// A different seed must be able to produce a different combiner (guards
	// against the seed being ignored).
	c3, _, err := RetrainCombiner(base, segs, 10)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := c3.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) == string(b3) {
		t.Fatal("retrain ignores the seed")
	}
}
