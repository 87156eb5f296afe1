package delphi

import "testing"

// BenchmarkTrain measures a whole Train with the options cmd/delphi-train and
// the pipeline benchmark's set-up use: six feature models fitted side by side,
// then the combiner.
func BenchmarkTrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(goldenTrain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrainCombiner measures one full off-hot-path retrain pass —
// dataset windowing, combiner fit, and holdout validation — the wall cost a
// trainer worker pays per drifted device class.
func BenchmarkRetrainCombiner(b *testing.B) {
	base := benchTrained(b)
	segs := squareSegments(256, 40, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RetrainCombiner(base, segs, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePredictDuringSwap measures the steady-state predict path
// with model promotions landing every 64 predictions. The swap compiles
// nothing under the instance lock (engines are cached per model), so the
// interleaved path must stay allocation-free (TestPredictZeroAllocAcrossSwap
// asserts it).
func BenchmarkOnlinePredictDuringSwap(b *testing.B) {
	m1 := benchTrained(b)
	m2, err := Train(TrainOptions{Seed: 2, Epochs: 5, SeriesPerFeature: 2, SeriesLen: 100})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-compile both engines so the steady state never pays first-use cost.
	if _, err := m2.Engine(); err != nil {
		b.Fatal(err)
	}
	o := NewOnline(m1)
	observeSeries(o, 1, WindowSize+2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			m := m1
			if i%128 == 0 {
				m = m2
			}
			if err := o.SwapModel(m); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := o.Predict(); !ok {
			b.Fatal("not ready")
		}
	}
}
