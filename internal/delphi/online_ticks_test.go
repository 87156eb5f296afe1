package delphi

import (
	"math"
	"testing"
)

func TestPredictTicksEmpty(t *testing.T) {
	o := NewOnline(nil)
	if got := o.PredictTicksInto(nil, 0); len(got) != 0 {
		t.Fatalf("ticks=%v", got)
	}
	// No observations at all: zeros.
	got := o.PredictTicksInto(nil, 3)
	for _, v := range got {
		if v != 0 {
			t.Fatalf("ticks=%v", got)
		}
	}
	// Partial window, no model: hold last value.
	o.Observe(7)
	got = o.PredictTicksInto(nil, 2)
	if len(got) != 2 || got[0] != 7 || got[1] != 7 {
		t.Fatalf("ticks=%v", got)
	}
}

func TestPredictTicksInterpolates(t *testing.T) {
	o := NewOnline(trained(t))
	for _, v := range []float64{10, 20, 30, 40, 50} {
		o.Observe(v)
	}
	next, ok := o.Predict()
	if !ok {
		t.Fatal("predict not ok")
	}
	ticks := o.PredictTicksInto(nil, 3)
	if len(ticks) != 3 {
		t.Fatalf("ticks=%v", ticks)
	}
	// Monotone between last observation (50) and the forecast.
	prev := 50.0
	for i, v := range ticks {
		if (next >= 50 && v < prev-1e-9) || (next < 50 && v > prev+1e-9) {
			t.Fatalf("tick %d=%f not monotone toward %f", i, v, next)
		}
		prev = v
	}
	// The last tick lies strictly between the anchor points.
	if next > 50 && (ticks[2] <= 50 || ticks[2] >= next) {
		t.Fatalf("ticks=%v next=%f", ticks, next)
	}
}

func TestPredictClampedToWindowEnvelope(t *testing.T) {
	o := NewOnline(trained(t))
	// A steep ramp: even if the model extrapolates wildly, the prediction
	// must stay within the window envelope expanded by one span.
	for _, v := range []float64{0, 100, 200, 300, 400} {
		o.Observe(v)
	}
	p, ok := o.Predict()
	if !ok {
		t.Fatal("predict not ok")
	}
	if p > 400+400 || p < 0-400 {
		t.Fatalf("prediction %f escaped the clamp", p)
	}
}

func TestClosedLoopPredictionDoesNotDiverge(t *testing.T) {
	// Feed predictions back as observations for many steps; values must
	// stay bounded thanks to the envelope clamp.
	o := NewOnline(trained(t))
	for _, v := range []float64{10, 20, 30, 40, 50} {
		o.Observe(v)
	}
	for i := 0; i < 200; i++ {
		p, _ := o.Predict()
		if math.IsNaN(p) || math.IsInf(p, 0) || math.Abs(p) > 1e9 {
			t.Fatalf("diverged at step %d: %f", i, p)
		}
		o.Observe(p)
	}
}
