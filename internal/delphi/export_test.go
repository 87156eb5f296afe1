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
	in := make([]float64, 0, combinerInputs)
	for _, f := range m.features {
		in = append(in, f.Forward(norm)[0])
	}
	in = append(in, norm...)
	mean := 0.0
	for _, v := range norm {
		mean += v
	}
	mean /= float64(len(norm))
	in = append(in, mean, norm[len(norm)-1]-norm[0])
	pred := m.combiner.Forward(in)[0]
	return pred*scale + loc, nil
}
