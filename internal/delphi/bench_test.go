package delphi

import (
	"sync"
	"testing"
)

var (
	benchOnce  sync.Once
	benchModel *Model
	benchErr   error
)

// benchTrained caches one trained model across all benchmarks (training cost
// would otherwise dominate -bench runs).
func benchTrained(b *testing.B) *Model {
	b.Helper()
	benchOnce.Do(func() {
		benchModel, benchErr = Train(TrainOptions{Seed: 1, Epochs: 5, SeriesPerFeature: 2, SeriesLen: 100})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchModel
}

// BenchmarkOnlinePredict measures the fused single-metric predict — the
// steady-state hot path of one Fact Vertex.
func BenchmarkOnlinePredict(b *testing.B) {
	o := NewOnline(benchTrained(b))
	observeSeries(o, 1, WindowSize+2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := o.Predict(); !ok {
			b.Fatal("not ready")
		}
	}
}

// BenchmarkOnlinePredictUnfused measures the reference layer-by-layer path
// (test-only, export_test.go) — the baseline to compare BenchmarkOnlinePredict
// against.
func BenchmarkOnlinePredictUnfused(b *testing.B) {
	m := benchTrained(b)
	w := []float64{1, 2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictUnfused(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePredictTicks measures the vertex fill path: one predict plus
// interpolation into a reused buffer.
func BenchmarkOnlinePredictTicks(b *testing.B) {
	o := NewOnline(benchTrained(b))
	observeSeries(o, 1, WindowSize+2)
	out := make([]float64, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = o.PredictTicksInto(out[:0], 9)
	}
}
