package delphi

import "fmt"

// PredictUnfused is the original layer-by-layer prediction path (normalize,
// per-feature Dense.Forward, combiner Dense.Forward, denormalize). It
// allocates per call and mutates the layers' training caches, so it is not
// safe for concurrent use — it lives on in the test binary only, as the
// golden reference the equivalence tests and BenchmarkOnlinePredictUnfused
// compare the fast lane against.
func (m *Model) PredictUnfused(window []float64) (float64, error) {
	if len(window) != WindowSize {
		return 0, fmt.Errorf("delphi: window size %d, want %d", len(window), WindowSize)
	}
	if len(m.features) != NumStacked || m.combiner == nil {
		return 0, ErrNotTrained
	}
	norm := make([]float64, len(window))
	loc, scale := NormalizeInto(norm, window)
	pred := m.combiner.Forward(m.combinerInput(norm))[0]
	return pred*scale + loc, nil
}
