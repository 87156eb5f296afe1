package nn_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn/baseline"
)

// Property: an identity Dense layer is linear:
// f(ax) = a f(x) - (a-1) b.
func TestDenseLinearityQuick(t *testing.T) {
	d := baseline.NewDense(3, 2, 17)
	f := func(x1, x2, x3, a float64) bool {
		clampAll(&x1, &x2, &x3, &a)
		fx := append([]float64(nil), d.Forward([]float64{x1, x2, x3})...) // Forward's result is the layer's buffer
		fax := d.Forward([]float64{a * x1, a * x2, a * x3})
		for o := 0; o < d.Out; o++ {
			want := a*fx[o] - (a-1)*d.B[o]
			if math.Abs(fax[o]-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func clampAll(vals ...*float64) {
	for _, v := range vals {
		if math.IsNaN(*v) || math.IsInf(*v, 0) || math.Abs(*v) > 1e6 {
			*v = 1
		}
	}
}

// TestForwardReturnsLayerBuffer pins the Layer.Forward contract a caller has
// to know: the slice is the layer's and the next call overwrites it.
func TestForwardReturnsLayerBuffer(t *testing.T) {
	d := baseline.NewDense(1, 1, 1)
	d.W[0], d.B[0] = 2, 0
	a := d.Forward([]float64{1})
	kept := a[0]
	b := d.Forward([]float64{5})
	if &a[0] != &b[0] || a[0] != 10 || kept != 2 {
		t.Fatalf("a=%v b=%v kept=%v: want one buffer, overwritten", a, b, kept)
	}
}

func TestDensePanicsOnBadShapes(t *testing.T) {
	d := baseline.NewDense(2, 1, 10)
	assertPanics(t, func() { d.Forward([]float64{1}) })
	d.Forward([]float64{1, 2})
	assertPanics(t, func() { d.Backward([]float64{1, 2}) })
	l := baseline.NewLSTM(2, 2, 11)
	assertPanics(t, func() { l.Forward([]float64{1, 2, 3}) }) // not a multiple of In
	l.Forward([]float64{1, 2, 3, 4})
	assertPanics(t, func() { l.Backward([]float64{1, 2, 3}) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
