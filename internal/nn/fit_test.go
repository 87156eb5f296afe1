package nn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// generic embeds a *Dense, so Fit's type check does not see a lone Dense and
// the model trains by gathering each batch for TrainBatch: the reference the
// lone-Dense loop must match.
type generic struct{ *Dense }

// randRows returns n rows of in inputs in [-1, 1) and out targets in [0, 1).
func randRows(in, out, n int, seed int64) (xs, ys [][]float64) {
	r := rng(seed)
	xs, ys = make([][]float64, n), make([][]float64, n)
	for i := range xs {
		xs[i], ys[i] = make([]float64, in), make([]float64, out)
		for j := range xs[i] {
			xs[i][j] = r.Float64()*2 - 1
		}
		for j := range ys[i] {
			ys[i][j] = r.Float64()
		}
	}
	return xs, ys
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestFitLoneDenseMatchesTrainBatch: Fit on a model that is one trainable
// Dense runs its own loop, and it must leave the weights, biases and Adam
// moments, and report the per-epoch and final losses, bit for bit as the
// gather-and-TrainBatch path does — over every activation, shapes on and off
// the In → 1 Identity kernel, batches of one, of an odd size, of Delphi's 32
// and larger than the dataset, with and without shuffling.
func TestFitLoneDenseMatchesTrainBatch(t *testing.T) {
	const n = 40
	type run struct {
		d      *Dense
		opt    *Adam
		epochs []float64
		loss   float64
	}
	fit := func(in, out int, act Activation, opts FitOptions, xs, ys [][]float64, wrap bool) run {
		r := run{d: NewDense(in, out, act, 11), opt: NewAdam(0.05)}
		var l Layer = r.d
		if wrap {
			l = generic{r.d}
		}
		opts.Optimizer = r.opt
		opts.OnEpoch = func(_ int, loss float64) { r.epochs = append(r.epochs, loss) }
		var err error
		if r.loss, err = NewSequential(l).Fit(xs, ys, opts); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, in := range []int{1, 2, 5, 13} {
		for _, out := range []int{1, 3} {
			xs, ys := randRows(in, out, n, int64(in*10+out))
			for _, act := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
				for _, batch := range []int{1, 7, 32, n + 5} {
					for _, shuffle := range []bool{false, true} {
						name := fmt.Sprintf("%d→%d %s batch=%d shuffle=%v", in, out, act.Name(), batch, shuffle)
						opts := FitOptions{Epochs: 3, BatchSize: batch, Shuffle: shuffle, Seed: 7}
						got := fit(in, out, act, opts, xs, ys, false)
						want := fit(in, out, act, opts, xs, ys, true)
						if !slices.Equal(got.d.x, make([]float64, in)) {
							t.Fatalf("%s: the bare layer ran Forward, not the lone-Dense loop", name)
						}
						if !sameBits(got.d.W, want.d.W) || !sameBits(got.d.B, want.d.B) {
							t.Errorf("%s: weights %v %v, TrainBatch's %v %v", name, got.d.W, got.d.B, want.d.W, want.d.B)
						}
						for k := range want.opt.m {
							if !sameBits(got.opt.m[k], want.opt.m[k]) || !sameBits(got.opt.v[k], want.opt.v[k]) {
								t.Errorf("%s: Adam moments of slot %d differ", name, k)
							}
						}
						if !sameBits(got.epochs, want.epochs) || math.Float64bits(got.loss) != math.Float64bits(want.loss) {
							t.Errorf("%s: losses %v → %v, TrainBatch's %v → %v", name, got.epochs, got.loss, want.epochs, want.loss)
						}
					}
				}
			}
		}
	}

	// A target of the wrong arity, mid-batch, fails both paths alike.
	for _, act := range []Activation{Identity, Tanh} {
		xs, ys := randRows(5, 1, n, 3)
		ys[6] = []float64{1, 2}
		_, got := NewSequential(NewDense(5, 1, act, 1)).Fit(xs, ys, FitOptions{})
		_, want := NewSequential(generic{NewDense(5, 1, act, 1)}).Fit(xs, ys, FitOptions{})
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("5→1 %s, a row of 2 targets: error %v, TrainBatch's %v", act.Name(), got, want)
		}
	}

	// A frozen lone Dense does not move.
	frozen := NewDense(5, 1, Identity, 2)
	frozen.Frozen = true
	w, b := slices.Clone(frozen.W), slices.Clone(frozen.B)
	xs, ys := randRows(5, 1, n, 4)
	if _, err := NewSequential(frozen).Fit(xs, ys, FitOptions{Epochs: 3, Optimizer: NewAdam(0.1)}); err != nil {
		t.Fatal(err)
	}
	if !sameBits(frozen.W, w) || !sameBits(frozen.B, b) {
		t.Fatalf("frozen layer moved: %v %v → %v %v", w, b, frozen.W, frozen.B)
	}
}

// TestAdamBiasCorrectionMatchesPow: every bias correction the table hands a
// step is the bits 1 − math.Pow(β, t) would be, for Adam's two βs over ten
// thousand steps, while two goroutines read the table and grow it at once,
// and past the table's cap. The process-wide table serves one β from one
// instance.
func TestAdamBiasCorrectionMatchesPow(t *testing.T) {
	const steps = 10000
	for _, beta := range []float64{0.9, 0.999} {
		if tableFor(nil, beta) != tableFor(nil, beta) {
			t.Fatalf("β=%v: two tables", beta)
		}
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

// BenchmarkFit times one Fit of each of Delphi's two trainable shapes at
// delphi-train's sizes — a head, 5 → 1 over 3 950 windows, and the combiner,
// 13 → 1 over 3 995 rows, 60 epochs of 32-row batches each — on the
// lone-Dense loop ("fused") and on the gather-and-TrainBatch path ("generic").
func BenchmarkFit(b *testing.B) {
	for _, shape := range []struct {
		name  string
		in, n int
	}{{"head-5x1", 5, 3950}, {"combiner-13x1", 13, 3995}} {
		xs, ys := randRows(shape.in, 1, shape.n, 1)
		for _, path := range []string{"fused", "generic"} {
			b.Run(shape.name+"/"+path, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d := NewDense(shape.in, 1, Identity, 1)
					var l Layer = d
					if path == "generic" {
						l = generic{d}
					}
					if _, err := NewSequential(l).Fit(xs, ys, FitOptions{
						Epochs: 60, BatchSize: 32, Optimizer: NewAdam(0.01), Shuffle: true, Seed: 1,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
