package nn

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
)

// rows returns n rows of in inputs in [-1, 1) and their targets in [0, 1).
func rows(in, n int, seed int64) (xs [][]float64, ys []float64) {
	r := rng(seed)
	xs, ys = make([][]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, in)
		for j := range xs[i] {
			xs[i][j] = r.Float64()*2 - 1
		}
		ys[i] = r.Float64()
	}
	return xs, ys
}

// TestDenseForwardKnownWeights: a step's loss and gradient are those of
// b + w·x, here 1 + 2·10 + 3·20 = 81 against a target of 80.
func TestDenseForwardKnownWeights(t *testing.T) {
	d := NewDense(2, 1)
	d.W[0], d.W[1], d.B[0] = 2, 3, 1
	loss, err := d.trainBatch(NewAdam(0), [][]float64{{10, 20}}, []float64{80}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if gw, gb := d.grads[0], d.grads[1]; loss != 1 || gw[0] != 20 || gw[1] != 40 || gb[0] != 2 {
		t.Fatalf("loss %v, gradient %v %v; want 1, [20 40] [2]", loss, gw, gb)
	}
}

// TestSequentialLearnsLinearFunction: y = 2a − 3b + 1 is learnable exactly by
// one Dense.
func TestSequentialLearnsLinearFunction(t *testing.T) {
	d := NewDense(2, 5)
	var xs [][]float64
	var ys []float64
	r := rng(42)
	for i := 0; i < 200; i++ {
		a, b := r.Float64()*2-1, r.Float64()*2-1
		xs = append(xs, []float64{a, b})
		ys = append(ys, 2*a-3*b+1)
	}
	loss, err := d.Fit(xs, ys, FitOptions{Epochs: 300, LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-4 {
		t.Fatalf("final loss %g too high", loss)
	}
	if math.Abs(d.W[0]-2) > 0.05 || math.Abs(d.W[1]+3) > 0.05 || math.Abs(d.B[0]-1) > 0.05 {
		t.Fatalf("learned W=%v B=%v", d.W, d.B)
	}
}

// TestFrozenLayerNotUpdated: a frozen layer reports its loss and does not
// move.
func TestFrozenLayerNotUpdated(t *testing.T) {
	d := NewDense(5, 2)
	d.Frozen = true
	w, b := slices.Clone(d.W), slices.Clone(d.B)
	xs, ys := rows(5, 40, 4)
	if loss, err := d.Fit(xs, ys, FitOptions{Epochs: 3, LR: 0.1}); err != nil || loss <= 0 {
		t.Fatalf("loss %v, err %v", loss, err)
	}
	if !slices.Equal(d.W, w) || !slices.Equal(d.B, b) {
		t.Fatalf("frozen layer moved: %v %v → %v %v", w, b, d.W, d.B)
	}
}

func TestEmptyDatasetErrors(t *testing.T) {
	if _, err := NewDense(1, 3).Fit(nil, nil, FitOptions{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("Fit: err=%v", err)
	}
	if _, err := Loop(0, FitOptions{}, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("Loop: err=%v", err)
	}
}

// TestTrainBatchTargetArity: a target count other than the row count, and a
// row of the wrong length, are errors.
func TestTrainBatchTargetArity(t *testing.T) {
	d := NewDense(2, 5)
	if _, err := d.Fit([][]float64{{1, 2}, {3, 4}}, []float64{1}, FitOptions{}); err == nil {
		t.Fatal("two rows with one target accepted")
	}
	if _, err := d.Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}, FitOptions{}); err == nil {
		t.Fatal("a row of one input accepted by a 2 → 1 layer")
	}
}

// TestTrainBatchZeroAllocs: once the first step has sized Adam's moments, a
// training step allocates nothing.
func TestTrainBatchZeroAllocs(t *testing.T) {
	d, opt := NewDense(5, 1), NewAdam(0.01)
	xs, ys := rows(5, 32, 2)
	batch := make([]int, len(xs))
	for i := range batch {
		batch[i] = i
	}
	step := func() {
		if _, err := d.trainBatch(opt, xs, ys, batch); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("a training step allocates %v objects after the first, want 0", n)
	}
}

// TestOptimizersKeyStateByParameter: two parameter slices of one shape get a
// moment slot each, so opposite gradients move them apart.
func TestOptimizersKeyStateByParameter(t *testing.T) {
	opt := NewAdam(0.1)
	p1, p2 := []float64{1}, []float64{1}
	opt.Step([][]float64{p1, p2}, [][]float64{{1}, {-1}}, 1)
	if p1[0] >= 1 || p2[0] <= 1 {
		t.Fatalf("p1=%v p2=%v: want one down and one up", p1, p2)
	}
	if len(opt.m) != 2 || &opt.m[0][0] == &opt.m[1][0] {
		t.Fatalf("%d moment slots, want 2 of their own", len(opt.m))
	}
}

// TestAdamSlotsSurviveFreezing: a slice stepped with a nil gradient, as a
// frozen layer's is, keeps its slot and does not move, and the next slice's
// moments stay where they were.
func TestAdamSlotsSurviveFreezing(t *testing.T) {
	opt := NewAdam(0.1)
	params := [][]float64{{1}, {1}}
	opt.Step(params, [][]float64{{1}, {1}}, 1)
	w, moments := params[0][0], opt.m[1]
	opt.Step(params, [][]float64{nil, {1}}, 1)
	if params[0][0] != w {
		t.Fatal("frozen slice moved")
	}
	if len(opt.m) != 2 || &opt.m[1][0] != &moments[0] {
		t.Fatalf("second slice's moments moved: %d slots", len(opt.m))
	}
}

// TestAdamBiasCorrectionMatchesPow: every bias correction the table hands a
// step is the bits 1 − math.Pow(β, t) would be, for Adam's two βs over ten
// thousand steps, while two goroutines read the table and grow it at once,
// and past the table's cap.
func TestAdamBiasCorrectionMatchesPow(t *testing.T) {
	const steps = 10000
	for _, beta := range []float64{beta1, beta2} {
		tab := &biasTable{beta: beta} // fresh, so the readers below grow it
		var wg sync.WaitGroup
		for _, stride := range []int{1, 3} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for step := 1; step <= steps; step += stride {
					if got, want := tab.at(step), 1-math.Pow(beta, float64(step)); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("β=%v t=%d: %v, math.Pow gives %v", beta, step, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, step := range []int{maxBiasSteps, maxBiasSteps + 1} {
			if got, want := tab.at(step), 1-math.Pow(beta, float64(step)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("β=%v t=%d: %v, math.Pow gives %v", beta, step, got, want)
			}
		}
	}
}
