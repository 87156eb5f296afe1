package delphi

import (
	"math"
	"testing"
)

// TestTrainAllocsIndependentOfEpochs: what Train allocates is its datasets,
// its seven layers and their optimizers — nothing per sample, batch or epoch.
// So sixty epochs cost the allocator what one does.
func TestTrainAllocsIndependentOfEpochs(t *testing.T) {
	allocs := func(epochs int) float64 {
		opts := goldenTrain
		opts.Epochs = epochs
		return testing.AllocsPerRun(2, func() {
			if _, err := Train(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, sixty := allocs(1), allocs(60)
	t.Logf("Train allocs: %v at 1 epoch, %v at 60", one, sixty)
	if math.Abs(sixty-one) > 0.01*one {
		t.Errorf("Train allocates %v objects at 60 epochs, %v at 1: the step allocates", sixty, one)
	}
	if sixty >= 5000 {
		t.Errorf("Train allocates %v objects, want < 5000", sixty)
	}
}

// TestRetrainAllocsIndependentOfSamples: a retrain pass on sixteen times the
// samples allocates the same objects plus the extra segments' backing arrays
// (three per segment) and a few doublings of the four dataset slices.
func TestRetrainAllocsIndependentOfSamples(t *testing.T) {
	base := trained(t)
	allocs := func(segs [][]float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := RetrainCombiner(base, segs, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(squareSegments(256, 40, 60))
	large := allocs(squareSegments(512, 10, 20, 30, 40, 50, 60, 70, 80))
	t.Logf("RetrainCombiner allocs: %v on 2x256 samples, %v on 8x512", small, large)
	if large-small > 40 || large > 400 {
		t.Errorf("RetrainCombiner allocates %v objects on 8x512 samples, %v on 2x256", large, small)
	}
}
