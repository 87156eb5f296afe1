package nn

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: a Dense layer with identity activation is linear:
// f(ax) = a f(x) - (a-1) b and f(x+y) = f(x) + f(y) - b.
func TestDenseLinearityQuick(t *testing.T) {
	d := NewDense(3, 2, Identity, 17)
	f := func(x1, x2, x3, a float64) bool {
		clampAll(&x1, &x2, &x3, &a)
		x := []float64{x1, x2, x3}
		fx := append([]float64(nil), d.Forward(x)...) // Forward's result is the layer's buffer
		ax := []float64{a * x1, a * x2, a * x3}
		fax := d.Forward(ax)
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

func TestFitOnEpochCallback(t *testing.T) {
	m := NewSequential(NewDense(1, 1, Identity, 4))
	xs := [][]float64{{1}, {2}}
	ys := [][]float64{{2}, {4}}
	var epochs []int
	var losses []float64
	if _, err := m.Fit(xs, ys, FitOptions{
		Epochs: 3, BatchSize: 2, Optimizer: NewAdam(0.01),
		OnEpoch: func(e int, l float64) { epochs = append(epochs, e); losses = append(losses, l) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 || epochs[2] != 2 {
		t.Fatalf("epochs=%v", epochs)
	}
	if losses[2] > losses[0] {
		t.Fatalf("loss increased: %v", losses)
	}
}

func TestTrainBatchTargetArity(t *testing.T) {
	m := NewSequential(NewDense(2, 2, Identity, 5))
	if _, err := m.TrainBatch([][]float64{{1, 2}}, [][]float64{{1}}, NewAdam(0.1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestOptimizersKeyStateByParameter(t *testing.T) {
	// Two layers with identical shapes must not share optimizer state.
	l1 := NewDense(1, 1, Identity, 6)
	l2 := NewDense(1, 1, Identity, 7)
	m := NewSequential(l1, l2)
	opt := NewAdam(0.1)
	xs := [][]float64{{1}}
	ys := [][]float64{{5}}
	w1a, w2a := l1.W[0], l2.W[0]
	if _, err := m.TrainBatch(xs, ys, opt); err != nil {
		t.Fatal(err)
	}
	if l1.W[0] == w1a && l2.W[0] == w2a {
		t.Fatal("no parameter moved")
	}
	if len(opt.m) != 4 { // W and B of both layers
		t.Fatalf("adam state entries=%d", len(opt.m))
	}
}

func TestParamCountHelpers(t *testing.T) {
	l := NewLSTM(1, 4, 9)
	total, trainable := ParamCount([]Layer{l})
	want := 4*4*(1+4+1) + 0 // 4H*(In) + 4H*H + 4H = 16 + 64 + 16 = 96
	_ = want
	if total != 96 || trainable != 96 {
		t.Fatalf("total=%d trainable=%d", total, trainable)
	}
	l.Frozen = true
	_, trainable = ParamCount([]Layer{l})
	if trainable != 0 {
		t.Fatalf("frozen trainable=%d", trainable)
	}
}

func TestDensePanicsOnBadShapes(t *testing.T) {
	d := NewDense(2, 1, Identity, 10)
	assertPanics(t, func() { d.Forward([]float64{1}) })
	d.Forward([]float64{1, 2})
	assertPanics(t, func() { d.Backward([]float64{1, 2}) })
	l := NewLSTM(2, 2, 11)
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
