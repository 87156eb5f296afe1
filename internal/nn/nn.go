// Package nn is the small, dependency-free training substrate that replaces
// the TensorFlow C API used by the original Apollo. It holds exactly what
// Delphi (§3.4.2) trains: a linear In → 1 Dense layer, MSE loss, the Adam
// optimizer and one shuffled mini-batch loop. Freezing a layer is how Delphi
// stacks its pre-trained feature models under the trainable combiner. The
// paper's LSTM baseline (Fig. 11) and the generic layer stack it trains on
// live in internal/nn/baseline, which plugs its batch step into Loop.
package nn

import (
	"errors"
	"fmt"
	"math/rand"
)

// batchSize is the mini-batch every fit steps on.
const batchSize = 32

// FitOptions controls a fit.
type FitOptions struct {
	Epochs int     // passes over the data, at least one
	LR     float64 // Adam's learning rate; 0 means 1e-3
	Seed   int64   // seeds the shuffle
}

// Loop is the one training loop: opts.Epochs passes over n rows, each a fresh
// seeded shuffle cut into batches of 32. Every batch goes to step with the
// Adam optimizer the fit owns; step returns the batch's mean loss, and Loop
// the last epoch's mean over its batches. Dense.Fit and the Fig. 11
// baseline's Sequential.Fit both train in it.
func Loop(n int, opts FitOptions, step func(opt *Adam, batch []int) (float64, error)) (float64, error) {
	if n == 0 {
		return 0, ErrEmptyDataset
	}
	opt := NewAdam(opts.LR)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	r := rng(opts.Seed)
	swap := func(i, j int) { idx[i], idx[j] = idx[j], idx[i] }
	var last float64
	for e := 0; e < max(opts.Epochs, 1); e++ {
		r.Shuffle(n, swap)
		total, batches := 0.0, 0
		for start := 0; start < n; start += batchSize {
			loss, err := step(opt, idx[start:min(start+batchSize, n)])
			if err != nil {
				return 0, err
			}
			total += loss
			batches++
		}
		last = total / float64(batches)
	}
	return last, nil
}

// errDimension reports a shape mismatch.
func errDimension(what string, got, want int) error {
	return fmt.Errorf("nn: %s dimension %d, want %d", what, got, want)
}

// ErrEmptyDataset is returned by training helpers on empty input.
var ErrEmptyDataset = errors.New("nn: empty dataset")

// rng returns a deterministic random source for reproducible init.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
