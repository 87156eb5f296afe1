package delphi

import (
	"math"
	"testing"
)

// forwardProbe reports, each time it is called, whether o ran a forward pass
// since the last call: a pass writes the heads' outputs into o's scratch,
// which the probe refills with NaN, a value no head of a trained model
// produces from a finite window.
func forwardProbe(o *Online) func() bool {
	poison := func() {
		for i := range o.scratch {
			o.scratch[i] = math.NaN()
		}
	}
	poison()
	return func() bool {
		ran := !math.IsNaN(o.scratch[0])
		poison()
		return ran
	}
}

// TestOnlineOneForwardPerPoll walks the calls FactVertex.pollOnce makes on its
// Online — Observe, PredictState, InFallback, Ready, PredictTicksInto — then
// the Predict a Service.PredictAll sweep makes after the poll, and requires
// one forward pass per poll, not one per question, with the answers those of
// an instance that recomputes every time.
func TestOnlineOneForwardPerPoll(t *testing.T) {
	o, ref := NewOnline(trained(t)), NewOnline(trained(t))
	observeSeries(o, 7, WindowSize)
	observeSeries(ref, 7, WindowSize)
	ran := forwardProbe(o)
	count := func() int {
		if ran() {
			return 1
		}
		return 0
	}
	var ticks []float64
	for poll := 0; poll < 50; poll++ {
		v := 40 + float64(poll%7)*3
		o.Observe(v)
		forwards := count()
		p, scale, ok := o.PredictState()
		forwards += count()
		if o.InFallback() || !o.Ready() {
			t.Fatal("not ready")
		}
		forwards += count()
		ticks = o.PredictTicksInto(ticks[:0], 3)
		forwards += count()
		swept, sweptOK := o.Predict()
		if forwards += count(); forwards != 1 {
			t.Fatalf("poll %d: %d forward passes, want 1", poll, forwards)
		}
		if swept != p || sweptOK != ok {
			t.Fatalf("poll %d: sweep read (%v,%v), the poll's forecast was (%v,%v)", poll, swept, sweptOK, p, ok)
		}

		ref.Observe(v) // a new window: ref computes its forecast afresh
		wantP, wantScale, wantOK := ref.PredictState()
		if p != wantP || scale != wantScale || ok != wantOK {
			t.Fatalf("poll %d: forecast (%v,%v,%v), want (%v,%v,%v)", poll, p, scale, ok, wantP, wantScale, wantOK)
		}
		for i, got := range ticks {
			if want := v + (wantP-v)*float64(i+1)/4; got != want {
				t.Fatalf("poll %d: tick %d = %v, want %v", poll, i, got, want)
			}
		}
	}
}

// TestOnlineMemoInvalidation: everything a forecast depends on drops the
// remembered one.
func TestOnlineMemoInvalidation(t *testing.T) {
	m := trained(t)
	o := NewOnline(m)
	observeSeries(o, 3, WindowSize)
	ran := forwardProbe(o)
	first, _ := o.Predict()
	if !ran() {
		t.Fatal("first forecast ran no forward pass")
	}
	if again, _ := o.Predict(); again != first || ran() {
		t.Fatalf("unchanged window: %v then %v, from a second forward pass", first, again)
	}

	o.SetFallback(true)
	if _, ok := o.Predict(); ok || ran() {
		t.Fatalf("fallback served a forecast (ok=%v) or ran a forward pass", ok)
	}
	o.SetFallback(false)
	if p, ok := o.Predict(); !ok || p != first || !ran() {
		t.Fatalf("after fallback: %v ok=%v, want %v from a fresh forward pass", p, ok, first)
	}

	other, err := Train(TrainOptions{Seed: 11, Epochs: 3, SeriesPerFeature: 2, SeriesLen: 80})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SwapModel(other); err != nil {
		t.Fatal(err)
	}
	want := NewOnline(other)
	observeSeries(want, 3, WindowSize)
	wantP, _ := want.Predict()
	if p, _ := o.Predict(); p != wantP {
		t.Fatalf("after swap: %v, want the new model's %v", p, wantP)
	}

	if err := o.SwapModel(m); err != nil {
		t.Fatal(err)
	}
	o.Observe(99)
	ran()
	if o.Predict(); !ran() {
		t.Fatal("Observe kept a stale forecast")
	}
}
