package delphi

import (
	"testing"
)

// countingIdentity is Identity that counts its applications. On a combiner it
// takes the engine off the unrolled kernel, and the generic path applies the
// combiner's activation exactly once per forward — so the count is the number
// of forward passes, with every output bit unchanged.
type countingIdentity struct{ n *int }

func (countingIdentity) Name() string                    { return "identity" }
func (c countingIdentity) Apply(x float64) float64       { *c.n++; return x }
func (countingIdentity) DerivFromOutput(float64) float64 { return 1 }

// countedCopy returns a copy of m whose forwards are counted in *n.
func countedCopy(t *testing.T, m *Model, n *int) *Model {
	t.Helper()
	b, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	c.combiner.Act = countingIdentity{n}
	return c
}

// TestOnlineOneForwardPerPoll walks the calls FactVertex.pollOnce makes on its
// Online — Observe, PredictState, InFallback, Ready, PredictTicksInto — and
// requires one forward pass per poll, not one per question, with the answers
// those of an instance that recomputes every time.
func TestOnlineOneForwardPerPoll(t *testing.T) {
	var forwards int
	o := NewOnline(countedCopy(t, trained(t), &forwards))
	ref := NewOnline(trained(t))
	observeSeries(o, 7, WindowSize)
	observeSeries(ref, 7, WindowSize)
	var ticks []float64
	for poll := 0; poll < 50; poll++ {
		v := 40 + float64(poll%7)*3
		before := forwards
		o.Observe(v)
		p, scale, ok := o.PredictState()
		if o.InFallback() || !o.Ready() {
			t.Fatal("not ready")
		}
		ticks = o.PredictTicksInto(ticks[:0], 3)
		if got := forwards - before; got != 1 {
			t.Fatalf("poll %d: %d forward passes, want 1", poll, got)
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
	var forwards int
	m := countedCopy(t, trained(t), &forwards)
	o := NewOnline(m)
	observeSeries(o, 3, WindowSize)
	first, _ := o.Predict()
	if again, _ := o.Predict(); again != first || forwards != 1 {
		t.Fatalf("unchanged window: %v then %v in %d forwards", first, again, forwards)
	}

	o.SetFallback(true)
	if _, ok := o.Predict(); ok || forwards != 1 {
		t.Fatalf("fallback served a forecast (ok=%v, %d forwards)", ok, forwards)
	}
	o.SetFallback(false)
	if p, ok := o.Predict(); !ok || p != first || forwards != 2 {
		t.Fatalf("after fallback: %v ok=%v in %d forwards", p, ok, forwards)
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
	before := forwards
	o.Predict()
	if forwards != before+1 {
		t.Fatal("Observe kept a stale forecast")
	}
	o.Reset()
	if _, ok := o.Predict(); ok {
		t.Fatal("Reset kept a forecast")
	}
}
