package delphi

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
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

func TestBatchPredictAllMatchesOnlinePredict(t *testing.T) {
	m := trained(t)
	for _, workers := range []int{1, 4} {
		// 300 slots with 4 workers crosses the pool-dispatch threshold.
		const n = 300
		bp, err := NewBatchPredictor(m, workers)
		if err != nil {
			t.Fatal(err)
		}
		defer bp.Close()
		onlines := make([]*Online, n)
		for i := range onlines {
			onlines[i] = NewOnline(m)
			slot, err := bp.Register(onlines[i])
			if err != nil {
				t.Fatal(err)
			}
			if slot != i {
				t.Fatalf("slot %d, want %d", slot, i)
			}
			// Mix of full windows, partial windows, and empty slots.
			observeSeries(onlines[i], int64(i), i%(WindowSize+3))
			observeSeries(onlines[i], int64(i)+1000, WindowSize*(i%2))
		}
		if bp.Slots() != n {
			t.Fatalf("Slots()=%d, want %d", bp.Slots(), n)
		}
		got := bp.PredictAll(nil)
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, o := range onlines {
			want, wantOK := o.Predict()
			if got[i].Slot != i || got[i].Value != want || got[i].OK != wantOK {
				t.Fatalf("workers=%d slot %d: got (%v, %v), want (%v, %v)",
					workers, i, got[i].Value, got[i].OK, want, wantOK)
			}
		}
	}
}

func TestBatchPredictorRejects(t *testing.T) {
	m := trained(t)
	if _, err := NewBatchPredictor(nil, 1); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("nil model: %v, want ErrNotTrained", err)
	}
	if _, err := NewBatchPredictor(&Model{}, 1); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained model: %v, want ErrNotTrained", err)
	}
	bp, err := NewBatchPredictor(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	if _, err := bp.Register(nil); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("nil online: %v, want ErrModelMismatch", err)
	}
	other, err := Train(TrainOptions{Seed: 9, Epochs: 2, SeriesPerFeature: 1, SeriesLen: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Register(NewOnline(other)); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("other model: %v, want ErrModelMismatch", err)
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

func TestBatchPredictAllZeroAlloc(t *testing.T) {
	m := trained(t)
	for _, tc := range []struct {
		name    string
		workers int
		slots   int
	}{
		{"inline", 1, 64},
		{"pooled", 2, 2 * batchChunkMin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bp, err := NewBatchPredictor(m, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			defer bp.Close()
			for i := 0; i < tc.slots; i++ {
				o := NewOnline(m)
				observeSeries(o, int64(i), WindowSize+i%3)
				if _, err := bp.Register(o); err != nil {
					t.Fatal(err)
				}
			}
			dst := bp.PredictAll(nil) // warm the arenas
			if avg := testing.AllocsPerRun(50, func() {
				dst = bp.PredictAll(dst[:0])
			}); avg != 0 {
				t.Fatalf("steady-state PredictAll allocates %v/op, want 0", avg)
			}
		})
	}
}

// TestPredictZeroAllocAcrossSwap measures the promotion-interleaved paths: a
// SwapModel landing between runs (engines are compiled once per model, before
// the measurement) must leave Online.Predict and a BatchPredictor sweep
// allocation-free.
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

	bp, err := NewBatchPredictor(models[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	for i := 0; i < 2*batchChunkMin; i++ {
		o := NewOnline(models[0])
		observeSeries(o, int64(i), WindowSize+i%3)
		if _, err := bp.Register(o); err != nil {
			t.Fatal(err)
		}
	}
	dst := bp.PredictAll(nil) // warm the arenas
	if avg := testing.AllocsPerRun(50, func() {
		run++
		if err := bp.SwapModel(models[run%2]); err != nil {
			t.Fatal(err)
		}
		dst = bp.PredictAll(dst[:0])
	}); avg != 0 {
		t.Fatalf("SwapModel+PredictAll allocates %v/op, want 0", avg)
	}
}

// TestBatchPredictorConcurrentObserve drives sweeps while every slot keeps
// observing — the vertex/batch-sweeper interleaving, meant for -race.
func TestBatchPredictorConcurrentObserve(t *testing.T) {
	m := trained(t)
	const slots = 160
	bp, err := NewBatchPredictor(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	onlines := make([]*Online, slots)
	for i := range onlines {
		onlines[i] = NewOnline(m)
		if _, err := bp.Register(onlines[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, o := range onlines {
		wg.Add(1)
		go func(o *Online, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Bounded and yielding: 160 observers spinning without a yield
			// convoy the sweep's per-slot locks behind a full scheduler
			// rotation each, which takes hours when GOMAXPROCS is 2.
			for n := 0; n < 2000; n++ {
				select {
				case <-stop:
					return
				default:
					o.Observe(rng.NormFloat64())
					runtime.Gosched()
				}
			}
		}(o, int64(i))
	}
	var dst []BatchPrediction
	for sweep := 0; sweep < 50; sweep++ {
		dst = bp.PredictAll(dst[:0])
		if len(dst) != slots {
			t.Fatalf("sweep %d: %d results", sweep, len(dst))
		}
		for _, p := range dst {
			if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
				t.Fatalf("sweep %d slot %d: value %v", sweep, p.Slot, p.Value)
			}
		}
	}
	close(stop)
	wg.Wait()
}
