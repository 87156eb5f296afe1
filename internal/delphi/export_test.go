package delphi

import (
	"fmt"

	"repro/internal/nn"
)

// PredictUnfused is the layer-by-layer prediction path (normalize, each
// feature head's dot product, the combiner's over the assembled input,
// denormalize). It allocates per call — it lives on in the test binary only,
// as the golden reference the equivalence tests and
// BenchmarkOnlinePredictUnfused compare the fast lane against.
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
		in = append(in, layerOutput(f, norm))
	}
	in = append(in, norm...)
	mean := 0.0
	for _, v := range norm {
		mean += v
	}
	mean /= float64(len(norm))
	in = append(in, mean, norm[len(norm)-1]-norm[0])
	return layerOutput(m.combiner, in)*scale + loc, nil
}

// layerOutput is one layer's output b + w·x, summed from the bias left to
// right.
func layerOutput(d *nn.Dense, x []float64) float64 {
	sum := d.B[0]
	for i, xi := range x {
		sum += d.W[i] * xi
	}
	return sum
}
