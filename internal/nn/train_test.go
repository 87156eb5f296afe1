package nn

import (
	"math"
	"testing"
)

// TestLSTMFitLossPinned: the Fig. 11 comparator (LSTM + Dense head, shuffled
// mini-batches, Adam) rides the same Fit/TrainBatch/Adam.Step as Delphi's
// Dense stacks. Its final-epoch loss is pinned bit for bit against the value
// measured before that step was rewritten to work in layer-owned scratch, so
// a change in the order of any floating-point operation shows here.
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
	m := NewSequential(NewLSTM(1, 8, 3), NewDense(8, 1, Identity, 4))
	loss, err := m.Fit(xs, ys, FitOptions{Epochs: 4, BatchSize: 32, Optimizer: NewAdam(2e-3), Shuffle: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(loss); got != want {
		t.Fatalf("final-epoch loss %v (bits %#x), want bits %#x", loss, got, want)
	}
}

// TestTrainBatchZeroAllocs: once the first call has sized the model's scratch
// and the optimizer's moments, a training step on a Dense stack allocates
// nothing — forward, loss gradient, backward and the Adam update all work in
// buffers the model, its layers and the optimizer own.
func TestTrainBatchZeroAllocs(t *testing.T) {
	m := NewSequential(NewDense(5, 4, Tanh, 1), NewDense(4, 1, Identity, 2))
	opt := NewAdam(0.01)
	var xs, ys [][]float64
	for i := 0; i < 32; i++ {
		f := float64(i) / 32
		xs = append(xs, []float64{f, -f, f * f, 1 - f, 0.5})
		ys = append(ys, []float64{2*f - 1})
	}
	step := func() {
		if _, err := m.TrainBatch(xs, ys, opt); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("TrainBatch allocates %v objects per call after the first, want 0", n)
	}
}

// TestForwardReturnsLayerBuffer pins the Layer.Forward contract a caller has
// to know: the slice is the layer's and the next call overwrites it.
func TestForwardReturnsLayerBuffer(t *testing.T) {
	d := NewDense(1, 1, Identity, 1)
	d.W[0], d.B[0] = 2, 0
	a := d.Forward([]float64{1})
	kept := a[0]
	b := d.Forward([]float64{5})
	if &a[0] != &b[0] || a[0] != 10 || kept != 2 {
		t.Fatalf("a=%v b=%v kept=%v: want one buffer, overwritten", a, b, kept)
	}
}

// TestAdamSlotsSurviveFreezing: moments sit in slots parallel to the layers,
// so a layer frozen between two steps neither moves nor shifts another's.
func TestAdamSlotsSurviveFreezing(t *testing.T) {
	first, second := NewDense(1, 1, Identity, 1), NewDense(1, 1, Identity, 2)
	m := NewSequential(first, second)
	opt := NewAdam(0.1)
	xs, ys := [][]float64{{1}}, [][]float64{{3}}
	if _, err := m.TrainBatch(xs, ys, opt); err != nil {
		t.Fatal(err)
	}
	first.Frozen = true
	w, moments := first.W[0], opt.m[2]
	if _, err := m.TrainBatch(xs, ys, opt); err != nil {
		t.Fatal(err)
	}
	if first.W[0] != w {
		t.Fatal("frozen layer moved")
	}
	if len(opt.m) != 4 || &opt.m[2][0] != &moments[0] {
		t.Fatalf("second layer's moments moved: %d slots", len(opt.m))
	}
}
