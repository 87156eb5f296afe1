package delphi

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/nn/inference"
)

// engineOf returns m's fused engine, the one its device class sweeps with.
func engineOf(t testing.TB, m *Model) *inference.Engine {
	t.Helper()
	eng, err := m.Engine()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

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
		// 300 members with 4 workers crosses the pool-dispatch threshold.
		const n = 300
		bp := NewBatchPredictor(workers)
		defer bp.Close()
		onlines := make([]*Online, n)
		for i := range onlines {
			onlines[i] = NewOnline(m)
			// Mix of full windows, partial windows, and empty members.
			observeSeries(onlines[i], int64(i), i%(WindowSize+3))
			observeSeries(onlines[i], int64(i)+1000, WindowSize*(i%2))
		}
		got := bp.PredictAll(nil, engineOf(t, m), onlines)
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, o := range onlines {
			want, wantOK := o.Predict()
			if got[i].Value != want || got[i].OK != wantOK {
				t.Fatalf("workers=%d member %d: got (%v, %v), want (%v, %v)",
					workers, i, got[i].Value, got[i].OK, want, wantOK)
			}
		}
	}
}

// TestBatchPredictorRejects: a member whose Online predicts with an engine
// other than the sweep's — another model, or none — comes back not ready with
// its last value and is never mixed into the batch; a sweep without an engine
// reports every member so.
func TestBatchPredictorRejects(t *testing.T) {
	m := trained(t)
	other, err := Train(TrainOptions{Seed: 9, Epochs: 2, SeriesPerFeature: 1, SeriesLen: 60})
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBatchPredictor(1)
	defer bp.Close()
	members := []*Online{NewOnline(m), NewOnline(other), NewOnline(&Model{})}
	last := make([]float64, len(members))
	for i, o := range members {
		observeSeries(o, int64(i+1), 2*WindowSize)
		ref := NewOnline(nil)
		observeSeries(ref, int64(i+1), 2*WindowSize)
		last[i], _ = ref.Predict()
	}
	got := bp.PredictAll(nil, engineOf(t, m), members)
	if want, _ := members[0].Predict(); !got[0].OK || got[0].Value != want {
		t.Fatalf("own member: got %+v, want (%v, true)", got[0], want)
	}
	for i := 1; i < len(members); i++ {
		if got[i].OK || got[i].Value != last[i] {
			t.Fatalf("member %d on a foreign engine: got %+v, want (%v, false)", i, got[i], last[i])
		}
	}
	for i, p := range bp.PredictAll(nil, nil, members) {
		if p.OK || p.Value != last[i] {
			t.Fatalf("engineless sweep, member %d: got %+v, want (%v, false)", i, p, last[i])
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
			bp := NewBatchPredictor(tc.workers)
			defer bp.Close()
			eng := engineOf(t, m)
			members := make([]*Online, tc.slots)
			for i := range members {
				members[i] = NewOnline(m)
				observeSeries(members[i], int64(i), WindowSize+i%3)
			}
			dst := bp.PredictAll(nil, eng, members) // warm the arenas
			if avg := testing.AllocsPerRun(50, func() {
				dst = bp.PredictAll(dst[:0], eng, members)
			}); avg != 0 {
				t.Fatalf("steady-state PredictAll allocates %v/op, want 0", avg)
			}
		})
	}
}

// TestPredictZeroAllocAcrossSwap measures the promotion-interleaved paths: a
// SwapModel landing between runs (engines are compiled once per model, before
// the measurement) must leave Online.Predict and a BatchPredictor sweep —
// every member swapped, then swept with the new engine, as a device class
// promotes — allocation-free.
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

	bp := NewBatchPredictor(2)
	defer bp.Close()
	engs := []*inference.Engine{engineOf(t, models[0]), engineOf(t, models[1])}
	members := make([]*Online, 2*batchChunkMin)
	for i := range members {
		members[i] = NewOnline(models[0])
		observeSeries(members[i], int64(i), WindowSize+i%3)
	}
	dst := bp.PredictAll(nil, engs[0], members) // warm the arenas
	if avg := testing.AllocsPerRun(50, func() {
		run++
		for _, o := range members {
			if err := o.SwapModel(models[run%2]); err != nil {
				t.Fatal(err)
			}
		}
		dst = bp.PredictAll(dst[:0], engs[run%2], members)
	}); avg != 0 {
		t.Fatalf("SwapModel+PredictAll allocates %v/op, want 0", avg)
	}
}

// TestBatchPredictorConcurrentObserve drives sweeps while every slot keeps
// observing — the vertex/batch-sweeper interleaving, meant for -race.
func TestBatchPredictorConcurrentObserve(t *testing.T) {
	m := trained(t)
	const slots = 160
	bp := NewBatchPredictor(4)
	defer bp.Close()
	eng := engineOf(t, m)
	onlines := make([]*Online, slots)
	for i := range onlines {
		onlines[i] = NewOnline(m)
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
		dst = bp.PredictAll(dst[:0], eng, onlines)
		if len(dst) != slots {
			t.Fatalf("sweep %d: %d results", sweep, len(dst))
		}
		for i, p := range dst {
			if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
				t.Fatalf("sweep %d member %d: value %v", sweep, i, p.Value)
			}
		}
	}
	close(stop)
	wg.Wait()
}
