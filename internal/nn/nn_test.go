package nn

import (
	"encoding/json"
	"math"
	"testing"
)

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{Identity, 3, 3},
		{ReLU, -2, 0},
		{ReLU, 2, 2},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%g)=%g want %g", c.act.Name(), c.x, got, c.want)
		}
	}
	// Derivative-from-output identities.
	if Sigmoid.DerivFromOutput(0.5) != 0.25 {
		t.Error("sigmoid deriv wrong")
	}
	if Tanh.DerivFromOutput(0) != 1 {
		t.Error("tanh deriv wrong")
	}
	if ReLU.DerivFromOutput(0) != 0 || ReLU.DerivFromOutput(1) != 1 {
		t.Error("relu deriv wrong")
	}
}

func TestActivationByName(t *testing.T) {
	for _, n := range []string{"identity", "relu", "sigmoid", "tanh"} {
		a, err := ActivationByName(n)
		if err != nil || a.Name() != n {
			t.Fatalf("ActivationByName(%q) = %v, %v", n, a, err)
		}
	}
	if _, err := ActivationByName("swish"); err == nil {
		t.Fatal("unknown activation accepted")
	}
}

func TestDenseForwardKnownWeights(t *testing.T) {
	d := NewDense(2, 1, Identity, 1)
	d.W[0], d.W[1] = 2, 3
	d.B[0] = 1
	got := d.Forward([]float64{10, 20})
	if got[0] != 2*10+3*20+1 {
		t.Fatalf("forward=%v", got)
	}
}

// numericalGrad estimates dLoss/dp for every parameter by central difference.
func numericalGrad(m *Sequential, x, y []float64, p []float64, i int) float64 {
	const eps = 1e-6
	loss := func() float64 {
		pred := m.Predict(x)
		sum := 0.0
		for j := range pred {
			d := pred[j] - y[j]
			sum += d * d
		}
		return sum / float64(len(pred))
	}
	orig := p[i]
	p[i] = orig + eps
	lp := loss()
	p[i] = orig - eps
	lm := loss()
	p[i] = orig
	return (lp - lm) / (2 * eps)
}

func checkGrads(t *testing.T, m *Sequential, x, y []float64, tol float64) {
	t.Helper()
	for _, l := range m.Layers {
		l.ZeroGrads()
	}
	pred := m.Predict(x)
	dy := make([]float64, len(pred))
	for j := range pred {
		dy[j] = 2 * (pred[j] - y[j]) / float64(len(pred))
	}
	for li := len(m.Layers) - 1; li >= 0; li-- {
		dy = m.Layers[li].Backward(dy)
	}
	for li, l := range m.Layers {
		params, grads := l.Params(), l.Grads()
		for pi := range params {
			for i := range params[pi] {
				want := numericalGrad(m, x, y, params[pi][i:], 0)
				got := grads[pi][i]
				if math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Fatalf("layer %d param[%d][%d]: analytic %g vs numeric %g", li, pi, i, got, want)
				}
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	m := NewSequential(
		NewDense(3, 4, Tanh, 7),
		NewDense(4, 2, Identity, 8),
	)
	checkGrads(t, m, []float64{0.5, -0.3, 0.8}, []float64{0.1, -0.2}, 1e-5)
}

func TestDenseGradCheckSigmoidReLU(t *testing.T) {
	m := NewSequential(
		NewDense(2, 5, Sigmoid, 3),
		NewDense(5, 1, Identity, 4),
	)
	checkGrads(t, m, []float64{0.9, -1.1}, []float64{0.4}, 1e-5)
}

func TestLSTMGradCheck(t *testing.T) {
	m := NewSequential(
		NewLSTM(1, 3, 11),
		NewDense(3, 1, Identity, 12),
	)
	checkGrads(t, m, []float64{0.1, -0.5, 0.9, 0.2, -0.1}, []float64{0.3}, 1e-4)
}

func TestSequentialLearnsLinearFunction(t *testing.T) {
	// y = 2a - 3b + 1 is learnable exactly by a single dense layer.
	m := NewSequential(NewDense(2, 1, Identity, 5))
	var xs [][]float64
	var ys [][]float64
	r := rng(42)
	for i := 0; i < 200; i++ {
		a, b := r.Float64()*2-1, r.Float64()*2-1
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{2*a - 3*b + 1})
	}
	loss, err := m.Fit(xs, ys, FitOptions{Epochs: 300, BatchSize: 16, Optimizer: NewAdam(0.01), Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-4 {
		t.Fatalf("final loss %g too high", loss)
	}
	d := m.Layers[0].(*Dense)
	if math.Abs(d.W[0]-2) > 0.05 || math.Abs(d.W[1]+3) > 0.05 || math.Abs(d.B[0]-1) > 0.05 {
		t.Fatalf("learned W=%v B=%v", d.W, d.B)
	}
}

func TestFrozenLayerNotUpdated(t *testing.T) {
	frozen := NewDense(2, 2, Identity, 9)
	frozen.Frozen = true
	head := NewDense(2, 1, Identity, 10)
	m := NewSequential(frozen, head)
	before := append([]float64(nil), frozen.W...)
	xs := [][]float64{{1, 2}, {3, 4}}
	ys := [][]float64{{1}, {2}}
	if _, err := m.Fit(xs, ys, FitOptions{Epochs: 10, Optimizer: NewAdam(0.05)}); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if frozen.W[i] != before[i] {
			t.Fatal("frozen layer weights changed")
		}
	}
}

func TestParamCount(t *testing.T) {
	frozen := NewDense(5, 1, Identity, 1)
	frozen.Frozen = true
	head := NewDense(13, 1, Identity, 2)
	m := NewSequential(frozen, head) // shapes nonsensical for forward; count only
	total, trainable := m.ParamCount()
	if total != 6+14 || trainable != 14 {
		t.Fatalf("total=%d trainable=%d", total, trainable)
	}
}

func TestLSTMBaselineParamCount(t *testing.T) {
	// The Fig. 11 baseline: LSTM(1->133) + Dense(133->1) = 71,954 params,
	// the closest integer-hidden-size match to the paper's 71,851.
	m := NewSequential(NewLSTM(1, 133, 1), NewDense(133, 1, Identity, 2))
	total, trainable := m.ParamCount()
	if total != 71954 || trainable != 71954 {
		t.Fatalf("total=%d trainable=%d", total, trainable)
	}
}

func TestLSTMLearnsShortPattern(t *testing.T) {
	// Predict next value of an alternating sequence — requires memory.
	m := NewSequential(NewLSTM(1, 8, 21), NewDense(8, 1, Identity, 22))
	var xs [][]float64
	var ys [][]float64
	seq := []float64{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	for i := 0; i+5 < len(seq); i++ {
		xs = append(xs, seq[i:i+5])
		ys = append(ys, []float64{seq[i+5]})
	}
	loss, err := m.Fit(xs, ys, FitOptions{Epochs: 200, BatchSize: 4, Optimizer: NewAdam(0.02)})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("lstm loss=%g", loss)
	}
	if p := m.Predict1([]float64{1, 0, 1, 0, 1}); math.Abs(p-0) > 0.2 {
		t.Fatalf("predict=%g want ~0", p)
	}
}

func TestEmptyDatasetErrors(t *testing.T) {
	m := NewSequential(NewDense(1, 1, Identity, 3))
	if _, err := m.Fit(nil, nil, FitOptions{}); err != ErrEmptyDataset {
		t.Fatalf("err=%v", err)
	}
	if _, err := m.TrainBatch(nil, nil, NewAdam(0)); err != ErrEmptyDataset {
		t.Fatalf("err=%v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	frozen := NewDense(5, 1, Tanh, 31)
	frozen.Frozen = true
	m := NewSequential(
		frozen,
		NewDense(1, 4, ReLU, 32),
		NewLSTM(4, 3, 33),
		NewDense(3, 1, Identity, 34),
	)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := new(Sequential)
	if err := json.Unmarshal(b, m2); err != nil {
		t.Fatal(err)
	}
	t1, tr1 := m.ParamCount()
	t2, tr2 := m2.ParamCount()
	if t1 != t2 || tr1 != tr2 {
		t.Fatalf("param counts differ: (%d,%d) vs (%d,%d)", t1, tr1, t2, tr2)
	}
	// Same weights -> same outputs for the dense-only prefix.
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	got1 := m.Predict(x)
	got2 := m2.Predict(x)
	for i := range got1 {
		if math.Abs(got1[i]-got2[i]) > 1e-12 {
			t.Fatalf("outputs differ after reload: %v vs %v", got1, got2)
		}
	}
	if !m2.Layers[0].(*Dense).Frozen {
		t.Fatal("frozen flag lost on reload")
	}
}

func BenchmarkDenseForward(b *testing.B) {
	d := NewDense(5, 1, Identity, 1)
	x := []float64{1, 2, 3, 4, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Forward(x)
	}
}

func BenchmarkLSTMForward133(b *testing.B) {
	m := NewSequential(NewLSTM(1, 133, 1), NewDense(133, 1, Identity, 2))
	x := []float64{1, 2, 3, 4, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}
