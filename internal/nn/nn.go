// Package nn is a small, dependency-free neural-network substrate replacing
// the TensorFlow C API used by the original Apollo. It provides exactly what
// Delphi (§3.4.2) and the paper's LSTM baseline (Fig. 11) need: dense layers
// with pluggable activations, MSE loss, the Adam optimizer, layer freezing
// ("untrainable" pre-trained feature models), an LSTM with full BPTT, and
// JSON model serialization.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation is an element-wise nonlinearity with its derivative expressed
// in terms of the activated output y = f(x).
type Activation interface {
	// Name identifies the activation for serialization.
	Name() string
	// Apply computes f(x).
	Apply(x float64) float64
	// DerivFromOutput computes f'(x) given y = f(x).
	DerivFromOutput(y float64) float64
}

type identity struct{}

func (identity) Name() string                    { return "identity" }
func (identity) Apply(x float64) float64         { return x }
func (identity) DerivFromOutput(float64) float64 { return 1 }

type relu struct{}

func (relu) Name() string { return "relu" }
func (relu) Apply(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}
func (relu) DerivFromOutput(y float64) float64 {
	if y > 0 {
		return 1
	}
	return 0
}

type sigmoid struct{}

func (sigmoid) Name() string                      { return "sigmoid" }
func (sigmoid) Apply(x float64) float64           { return 1 / (1 + math.Exp(-x)) }
func (sigmoid) DerivFromOutput(y float64) float64 { return y * (1 - y) }

type tanhAct struct{}

func (tanhAct) Name() string                      { return "tanh" }
func (tanhAct) Apply(x float64) float64           { return math.Tanh(x) }
func (tanhAct) DerivFromOutput(y float64) float64 { return 1 - y*y }

// Built-in activations.
var (
	Identity Activation = identity{}
	ReLU     Activation = relu{}
	Sigmoid  Activation = sigmoid{}
	Tanh     Activation = tanhAct{}
)

// ActivationByName resolves a serialized activation name.
func ActivationByName(name string) (Activation, error) {
	switch name {
	case "identity":
		return Identity, nil
	case "relu":
		return ReLU, nil
	case "sigmoid":
		return Sigmoid, nil
	case "tanh":
		return Tanh, nil
	default:
		return nil, fmt.Errorf("nn: unknown activation %q", name)
	}
}

// Layer is one differentiable stage of a Sequential model.
type Layer interface {
	// Forward computes the layer output for input x, caching what Backward
	// needs; x itself is not kept. The returned slice may be the layer's own
	// buffer, valid until the next Forward; a caller that keeps it copies.
	// Layers are single-threaded.
	Forward(x []float64) []float64
	// Backward receives dL/dy and returns dL/dx — on the same terms, valid
	// until the next Backward — accumulating parameter gradients internally.
	Backward(dy []float64) []float64
	// Params returns parameter slices; optimizers mutate them in place.
	// The same slices, in the same order, on every call.
	Params() [][]float64
	// Grads returns gradient accumulators parallel to Params.
	Grads() [][]float64
	// ZeroGrads clears gradient accumulators.
	ZeroGrads()
	// Trainable reports whether the optimizer may update this layer.
	Trainable() bool
	// InSize and OutSize describe the layer shape.
	InSize() int
	OutSize() int
}

// ParamCount sums the parameters of a layer set, total and trainable — the
// numbers the paper quotes for Delphi (50/14) and the LSTM baseline (71,851).
func ParamCount(layers []Layer) (total, trainable int) {
	for _, l := range layers {
		n := 0
		for _, p := range l.Params() {
			n += len(p)
		}
		total += n
		if l.Trainable() {
			trainable += n
		}
	}
	return total, trainable
}

// errDimension reports a shape mismatch.
func errDimension(what string, got, want int) error {
	return fmt.Errorf("nn: %s dimension %d, want %d", what, got, want)
}

// ErrEmptyDataset is returned by training helpers on empty input.
var ErrEmptyDataset = errors.New("nn: empty dataset")

// rng returns a deterministic random source for reproducible init.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
