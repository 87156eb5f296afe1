package baseline

import (
	"testing"

	"repro/internal/nn"
)

// BenchmarkFit times one fit of each of Delphi's two trainable shapes at
// delphi-train's sizes — a head, 5 → 1 over 3 950 windows, and the combiner,
// 13 → 1 over 3 995 rows, 60 epochs each — through the product's nn.Dense.Fit
// ("fused") and through this package's Sequential ("generic"). Both train in
// nn.Loop, with the same arithmetic in the same order.
func BenchmarkFit(b *testing.B) {
	for _, shape := range []struct {
		name  string
		in, n int
	}{{"head-5x1", 5, 3950}, {"combiner-13x1", 13, 3995}} {
		r := rng(1)
		xs, ys, targets := make([][]float64, shape.n), make([]float64, shape.n), make([][]float64, shape.n)
		for i := range xs {
			xs[i] = make([]float64, shape.in)
			for j := range xs[i] {
				xs[i][j] = r.Float64()*2 - 1
			}
			ys[i] = r.Float64()
			targets[i] = ys[i : i+1]
		}
		opts := nn.FitOptions{Epochs: 60, LR: 0.01, Seed: 1}
		b.Run(shape.name+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nn.NewDense(shape.in, 1).Fit(xs, ys, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape.name+"/generic", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSequential(NewDense(shape.in, 1, 1)).Fit(xs, targets, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLSTMForward133 times one forward pass of the Fig. 11 baseline at
// the paper's size (71 954 parameters) over a window of five.
func BenchmarkLSTMForward133(b *testing.B) {
	m := NewSequential(NewLSTM(1, 133, 1), NewDense(133, 1, 2))
	x := []float64{1, 2, 3, 4, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}
