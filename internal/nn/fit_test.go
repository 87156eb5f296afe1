package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/nn/baseline"
)

// randRows returns n rows of in inputs in [-1, 1) and their targets in [0, 1).
func randRows(in, n int, seed int64) (xs [][]float64, ys []float64) {
	r := rand.New(rand.NewSource(seed))
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

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestFitLoneDenseMatchesTrainBatch is the oracle for the fit Delphi runs.
// The product's fused step must leave the weights, the bias and Adam's
// moments, and return the loss, bit for bit as the generic path does: the
// Fig. 11 baseline's Sequential over a baseline.Dense of the same shape and
// seed, which runs every sample forward and back through the layer. All of
// them train in nn.Loop. In ∈ {1, 2, 5, 13} holds both Delphi shapes; n ∈
// {1, 7, 32, 37} gives a batch of one, an odd batch, one full batch, and a
// full one plus five; each case runs at two seeds.
func TestFitLoneDenseMatchesTrainBatch(t *testing.T) {
	for _, in := range []int{1, 2, 5, 13} {
		for _, n := range []int{1, 7, 32, 37} {
			for _, seed := range []int64{1, 2} {
				name := fmt.Sprintf("%d→1 n=%d seed=%d", in, n, seed)
				xs, ys := randRows(in, n, seed)
				opts := nn.FitOptions{Epochs: 3, LR: 0.05, Seed: seed}

				// The product: Dense.Fit, and its step in a Loop whose
				// Adam the test keeps.
				fit := nn.NewDense(in, seed)
				fitLoss, err := fit.Fit(xs, ys, opts)
				if err != nil {
					t.Fatal(err)
				}
				stepped := nn.NewDense(in, seed)
				var stepOpt *nn.Adam
				stepLoss, err := nn.Loop(n, opts, func(opt *nn.Adam, batch []int) (float64, error) {
					stepOpt = opt
					return stepped.TrainBatch(opt, xs, ys, batch)
				})
				if err != nil {
					t.Fatal(err)
				}

				// The reference: the generic stack's TrainBatch on the
				// gathered batch, in a Loop whose Adam the test keeps.
				ref := baseline.NewDense(in, 1, seed)
				seq := baseline.NewSequential(ref)
				var refOpt *nn.Adam
				var bx, by [][]float64
				refLoss, err := nn.Loop(n, opts, func(opt *nn.Adam, batch []int) (float64, error) {
					refOpt = opt
					bx, by = bx[:0], by[:0]
					for _, i := range batch {
						bx, by = append(bx, xs[i]), append(by, ys[i:i+1])
					}
					return seq.TrainBatch(bx, by, opt)
				})
				if err != nil {
					t.Fatal(err)
				}

				for _, got := range []struct {
					path string
					d    *nn.Dense
					loss float64
				}{{"Fit", fit, fitLoss}, {"TrainBatch", stepped, stepLoss}} {
					if !sameBits(got.d.W, ref.W) || !sameBits(got.d.B, ref.B) {
						t.Errorf("%s, %s: weights %v %v, the generic path's %v %v", name, got.path, got.d.W, got.d.B, ref.W, ref.B)
					}
					if math.Float64bits(got.loss) != math.Float64bits(refLoss) {
						t.Errorf("%s, %s: loss %v, the generic path's %v", name, got.path, got.loss, refLoss)
					}
				}
				m, v := stepOpt.Moments()
				wantM, wantV := refOpt.Moments()
				if len(m) != len(wantM) {
					t.Fatalf("%s: %d moment slots, the generic path's %d", name, len(m), len(wantM))
				}
				for k := range wantM {
					if !sameBits(m[k], wantM[k]) || !sameBits(v[k], wantV[k]) {
						t.Errorf("%s: Adam moments of slot %d differ", name, k)
					}
				}
			}
		}
	}
}
