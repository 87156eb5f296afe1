package nn_test

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/nn/baseline"
)

// The Fig. 11 baseline's tests sit beside the product package they share
// nn.Loop and nn.Adam with.

// TestLSTMFitLossPinned: the Fig. 11 comparator (LSTM + Dense head, shuffled
// batches of 32, Adam) trains through the baseline's generic
// Sequential.TrainBatch, in the nn.Loop and with the nn.Adam that Delphi's
// fused fit uses. Its final-epoch loss is pinned bit for bit against the
// value measured before that step was rewritten to work in layer-owned
// scratch, so a change in the order of any floating-point operation on its
// path shows here.
func TestLSTMFitLossPinned(t *testing.T) {
	const want = uint64(0x3fe59ef2a9fa5831) // 0.6756528205758113
	series := make([]float64, 70)
	for i := range series {
		series[i] = math.Sin(float64(i)/3) + 0.1*float64(i%5)
	}
	var xs, ys [][]float64
	for i := 0; i+5 < len(series); i++ {
		xs = append(xs, series[i:i+5])
		ys = append(ys, series[i+5:i+6])
	}
	m := baseline.NewSequential(baseline.NewLSTM(1, 8, 3), baseline.NewDense(8, 1, 4))
	loss, err := m.Fit(xs, ys, nn.FitOptions{Epochs: 4, LR: 2e-3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(loss); got != want {
		t.Fatalf("final-epoch loss %v (bits %#x), want bits %#x", loss, got, want)
	}
}

// numericalGrad estimates dLoss/dp[i] by central difference.
func numericalGrad(m *baseline.Sequential, x, y []float64, p []float64, i int) float64 {
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

func checkGrads(t *testing.T, m *baseline.Sequential, x, y []float64, tol float64) {
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
				want := numericalGrad(m, x, y, params[pi], i)
				got := grads[pi][i]
				if math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Fatalf("layer %d param[%d][%d]: analytic %g vs numeric %g", li, pi, i, got, want)
				}
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	m := baseline.NewSequential(baseline.NewDense(3, 4, 7), baseline.NewDense(4, 2, 8))
	checkGrads(t, m, []float64{0.5, -0.3, 0.8}, []float64{0.1, -0.2}, 1e-5)
}

func TestLSTMGradCheck(t *testing.T) {
	m := baseline.NewSequential(baseline.NewLSTM(1, 3, 11), baseline.NewDense(3, 1, 12))
	checkGrads(t, m, []float64{0.1, -0.5, 0.9, 0.2, -0.1}, []float64{0.3}, 1e-4)
}

func TestParamCount(t *testing.T) {
	frozen := baseline.NewDense(5, 1, 1)
	frozen.Frozen = true
	m := baseline.NewSequential(frozen, baseline.NewDense(13, 1, 2)) // shapes nonsensical for forward; count only
	total, trainable := m.ParamCount()
	if total != 6+14 || trainable != 14 {
		t.Fatalf("total=%d trainable=%d", total, trainable)
	}
}

func TestLSTMBaselineParamCount(t *testing.T) {
	// The Fig. 11 baseline: LSTM(1->133) + Dense(133->1) = 71,954 params,
	// the closest integer-hidden-size match to the paper's 71,851.
	m := baseline.NewSequential(baseline.NewLSTM(1, 133, 1), baseline.NewDense(133, 1, 2))
	total, trainable := m.ParamCount()
	if total != 71954 || trainable != 71954 {
		t.Fatalf("total=%d trainable=%d", total, trainable)
	}
}

func TestParamCountHelpers(t *testing.T) {
	l := baseline.NewLSTM(1, 4, 9)
	// 4H·In + 4H·H + 4H = 16 + 64 + 16.
	if total, trainable := baseline.ParamCount([]baseline.Layer{l}); total != 96 || trainable != 96 {
		t.Fatalf("total=%d trainable=%d", total, trainable)
	}
	l.Frozen = true
	if _, trainable := baseline.ParamCount([]baseline.Layer{l}); trainable != 0 {
		t.Fatalf("frozen trainable=%d", trainable)
	}
}

func TestLSTMLearnsShortPattern(t *testing.T) {
	// Predict next value of an alternating sequence — requires memory.
	m := baseline.NewSequential(baseline.NewLSTM(1, 8, 21), baseline.NewDense(8, 1, 22))
	var xs, ys [][]float64
	seq := []float64{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	for i := 0; i+5 < len(seq); i++ {
		xs = append(xs, seq[i:i+5])
		ys = append(ys, []float64{seq[i+5]})
	}
	loss, err := m.Fit(xs, ys, nn.FitOptions{Epochs: 400, LR: 0.02})
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
