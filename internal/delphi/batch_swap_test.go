package delphi

import (
	"sync"
	"testing"
)

// TestBatchPredictorSwapModelAligns checks promotion semantics: once every
// member has swapped to the new model, a sweep with its engine predicts each
// member bit-identically to a fresh Online wrapping it, and a member still on
// the old model is reported not ready until it swaps too.
func TestBatchPredictorSwapModelAligns(t *testing.T) {
	m1 := trained(t)
	m2, err := Train(TrainOptions{SeriesPerFeature: 2, SeriesLen: 64, Epochs: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	bp := NewBatchPredictor(2)
	defer bp.Close()
	onlines := make([]*Online, 8)
	for i := range onlines {
		onlines[i] = NewOnline(m1)
		observeSeries(onlines[i], int64(i+1), 3*WindowSize)
		if err := onlines[i].SwapModel(m2); err != nil {
			t.Fatal(err)
		}
	}
	eng2 := engineOf(t, m2)
	res := bp.PredictAll(nil, eng2, onlines)
	for i := range onlines {
		want := NewOnline(m2)
		observeSeries(want, int64(i+1), 3*WindowSize)
		wv, ok := want.Predict()
		if !ok || !res[i].OK || res[i].Value != wv {
			t.Fatalf("member %d after swap: got (%v,%v), want (%v,true)", i, res[i].Value, res[i].OK, wv)
		}
	}

	// A latecomer still wrapping the old model is left out of the batch,
	// then served after aligning — what the device class's attach does.
	stale := NewOnline(m1)
	observeSeries(stale, 42, 3*WindowSize)
	members := append(onlines, stale)
	if res := bp.PredictAll(nil, eng2, members); res[len(onlines)].OK {
		t.Fatal("stale-model member swept with the promoted engine")
	}
	if err := stale.SwapModel(m2); err != nil {
		t.Fatal(err)
	}
	if res := bp.PredictAll(nil, eng2, members); !res[len(onlines)].OK {
		t.Fatal("aligned member not served")
	}
}

// TestBatchPredictorCloseIdempotent guards the shutdown path: Close must be
// safe to call repeatedly and concurrently, after a sweep.
func TestBatchPredictorCloseIdempotent(t *testing.T) {
	m := trained(t)
	bp := NewBatchPredictor(2)
	o := NewOnline(m)
	observeSeries(o, 7, 2*WindowSize)
	eng := engineOf(t, m)
	done := make(chan struct{})
	go func() {
		defer close(done)
		bp.PredictAll(nil, eng, []*Online{o})
	}()
	<-done
	bp.Close()
	bp.Close() // second close must not panic or deadlock
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); bp.Close() }()
	}
	wg.Wait()
}
