// Package inference is the zero-allocation fast lane for Delphi's frozen
// stack. Training works in gradient buffers each nn.Dense owns, one goroutine
// at a time; inference at fleet scale cannot share that, so an Engine
// flattens the whole stack — N per-feature heads (5 → 1) over a shared
// window of five plus a combiner over [head outputs ++ window ++ mean ++
// slope] — into one contiguous structure-of-arrays weight arena and evaluates
// it in a single unrolled pass with caller-provided scratch.
//
// The Engine is read-only after construction (it snapshots the weights), so
// any number of goroutines may call Forward concurrently with their own
// scratch. Every dot product accumulates from its bias left to right, as
// evaluating the layers one at a time does, so outputs are bit-identical to
// that layered evaluation (this package's tests and delphi's PredictUnfused
// pin it).
package inference

import (
	"fmt"

	"repro/internal/nn"
)

// window is the one input length an Engine evaluates: Delphi's window.
const window = 5

// Engine is a fused evaluator for a frozen head-stack + combiner model.
//
// Weight arena layout (one contiguous []float64, SoA):
//
//	[ head weights: heads×5 row-major | head biases: heads |
//	  combiner weights: heads+5+2 ]
//
// The combiner input convention is Delphi's (§3.4.2): the heads' outputs,
// the raw (normalized) window, the window mean, and the window slope
// (last − first), in that order.
type Engine struct {
	heads int

	hw []float64 // heads*5, row-major: hw[h*5+i]
	hb []float64 // heads
	cw []float64 // heads+5+2
	cb float64
}

// NewEngine compiles frozen feature heads (each 5 → 1) and a combiner
// ((heads+5+2) → 1) into a fused engine; any other shape is an error.
// Weights are copied into the arena; later mutation of the source layers
// does not affect the engine.
func NewEngine(features []*nn.Dense, combiner *nn.Dense) (*Engine, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("inference: no feature heads")
	}
	for i, f := range features {
		if f == nil || f.In != window {
			return nil, fmt.Errorf("inference: head %d is not %d→1", i, window)
		}
	}
	heads := len(features)
	if want := heads + window + 2; combiner == nil || combiner.In != want {
		return nil, fmt.Errorf("inference: combiner is not %d→1", want)
	}
	arena := make([]float64, heads*window+heads+combiner.In)
	e := &Engine{
		heads: heads,
		hw:    arena[:heads*window],
		hb:    arena[heads*window : heads*window+heads],
		cw:    arena[heads*window+heads:],
		cb:    combiner.B[0],
	}
	for h, f := range features {
		copy(e.hw[h*window:(h+1)*window], f.W)
		e.hb[h] = f.B[0]
	}
	copy(e.cw, combiner.W)
	return e, nil
}

// Forward evaluates one window through the fused stack. scratch must have at
// least one element per head; on return those hold the heads' outputs, in
// head order (delphi builds the combiner's training rows from them). x is
// read-only. No allocation, safe for concurrent use with distinct scratch.
func (e *Engine) Forward(x, scratch []float64) float64 {
	if len(x) != window {
		panic(fmt.Sprintf("inference: window length %d, want %d", len(x), window))
	}
	if len(scratch) < e.heads {
		panic(fmt.Sprintf("inference: scratch length %d, want >= %d", len(scratch), e.heads))
	}
	return e.forward5(x, scratch)
}

// forward5 is the unrolled linear kernel: the window lives in registers
// across every head dot and the combiner fold. Accumulation is left to right
// per head, then head outputs, window, mean, slope — the layered order.
func (e *Engine) forward5(x, hs []float64) float64 {
	x0, x1, x2, x3, x4 := x[0], x[1], x[2], x[3], x[4]
	hw, hb, cw := e.hw, e.hb, e.cw
	sum := e.cb
	for h := 0; h < e.heads; h++ {
		r := hw[h*5 : h*5+5 : h*5+5]
		v := hb[h] + r[0]*x0 + r[1]*x1 + r[2]*x2 + r[3]*x3 + r[4]*x4
		hs[h] = v
		sum += cw[h] * v
	}
	off := e.heads
	sum = sum + cw[off]*x0 + cw[off+1]*x1 + cw[off+2]*x2 + cw[off+3]*x3 + cw[off+4]*x4
	mean := (x0 + x1 + x2 + x3 + x4) / 5
	slope := x4 - x0
	sum += cw[off+5] * mean
	sum += cw[off+6] * slope
	return sum
}
