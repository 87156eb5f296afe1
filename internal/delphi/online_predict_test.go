package delphi

import (
	"math"
	"math/rand"
	"testing"
)

// observeSeries feeds a deterministic pseudo-random walk into o.
func observeSeries(o *Online, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	v := 50 + rng.Float64()*10
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		o.Observe(v)
	}
}

func TestPredictMatchesUnfusedBitExact(t *testing.T) {
	m := trained(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		w := make([]float64, WindowSize)
		for i := range w {
			w[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		fused, err := m.Predict(w)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := m.PredictUnfused(w)
		if err != nil {
			t.Fatal(err)
		}
		if fused != ref {
			t.Fatalf("trial %d: fused %v != unfused %v (diff %g)", trial, fused, ref, fused-ref)
		}
	}
}

func TestOnlinePredictZeroAlloc(t *testing.T) {
	m := trained(t)
	o := NewOnline(m)
	observeSeries(o, 7, WindowSize+3)
	ticks := make([]float64, 0, 16)
	if avg := testing.AllocsPerRun(100, func() {
		if _, ok := o.Predict(); !ok {
			t.Fatal("not ready")
		}
	}); avg != 0 {
		t.Fatalf("Predict allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		ticks = o.PredictTicksInto(ticks[:0], 9)
	}); avg != 0 {
		t.Fatalf("PredictTicksInto allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		o.Observe(1.5)
	}); avg != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", avg)
	}
}

// TestPredictZeroAllocAcrossSwap measures the promotion-interleaved path: a
// SwapModel landing between runs (engines are compiled once per model, before
// the measurement) must leave Online.Predict allocation-free.
func TestPredictZeroAllocAcrossSwap(t *testing.T) {
	models := []*Model{trained(t), nil}
	var err error
	if models[1], err = Train(TrainOptions{SeriesPerFeature: 2, SeriesLen: 64, Epochs: 3, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := models[1].Engine(); err != nil {
		t.Fatal(err)
	}

	o := NewOnline(models[0])
	observeSeries(o, 7, WindowSize+3)
	run := 0
	if avg := testing.AllocsPerRun(100, func() {
		run++
		if err := o.SwapModel(models[run%2]); err != nil {
			t.Fatal(err)
		}
		if _, ok := o.Predict(); !ok {
			t.Fatal("not ready")
		}
	}); avg != 0 {
		t.Fatalf("SwapModel+Predict allocates %v/op, want 0", avg)
	}
}
