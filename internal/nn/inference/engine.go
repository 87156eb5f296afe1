// Package inference is the zero-allocation fast lane for frozen Delphi-style
// stacks. Training runs layer by layer on nn.Sequential — it allocates nothing
// per step either, but works in gradient caches and output buffers the layers
// own, one goroutine at a time; inference at fleet scale can afford neither
// the caches nor the exclusivity, so an Engine flattens the whole stack — N
// per-feature Dense heads over a shared input window plus a combiner Dense
// over [head outputs ++ window ++ mean ++ slope] — into one contiguous
// structure-of-arrays weight arena and evaluates it in a single pass with
// caller-provided scratch.
//
// The Engine is read-only after construction (it snapshots the weights), so
// any number of goroutines may call Forward/ForwardBatch concurrently with
// their own scratch — unlike Dense.Forward, which mutates the layer's
// training caches. Evaluation accumulates in exactly the order the layered
// path does, so outputs are bit-identical to nn.Sequential.Predict over the
// equivalent stack (the property test in this package pins that).
package inference

import (
	"fmt"

	"repro/internal/nn"
)

// Engine is a fused evaluator for a frozen head-stack + combiner model.
//
// Weight arena layout (one contiguous []float64, SoA):
//
//	[ head weights: heads×win row-major | head biases: heads |
//	  combiner weights: heads+win+2     | combiner bias: 1   ]
//
// The combiner input convention is Delphi's (§3.4.2): the heads' outputs,
// the raw (normalized) window, the window mean, and the window slope
// (last − first), in that order.
type Engine struct {
	win, heads int

	arena []float64 // backing store; hw/hb/cw are views into it
	hw    []float64 // heads*win, row-major: hw[h*win+i]
	hb    []float64 // heads
	cw    []float64 // heads+win+2
	cb    float64

	acts    []nn.Activation // per-head activations
	combAct nn.Activation

	// linear5 marks the Delphi production shape — window 5, every activation
	// Identity — which gets a fully unrolled kernel (no interface calls, dots
	// in registers). Identity.Apply is the identity on bits, so the kernel
	// stays bit-identical to the generic path.
	linear5 bool
}

// NewEngine compiles frozen feature heads (each win→1) and a combiner
// ((heads+win+2)→1) into a fused engine. Weights are copied into the arena;
// later mutation of the source layers does not affect the engine.
func NewEngine(features []*nn.Dense, combiner *nn.Dense) (*Engine, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("inference: no feature heads")
	}
	if combiner == nil {
		return nil, fmt.Errorf("inference: nil combiner")
	}
	win := features[0].In
	heads := len(features)
	for i, f := range features {
		if f == nil || f.In != win || f.Out != 1 {
			return nil, fmt.Errorf("inference: head %d shape %dx%d, want %dx1", i, f.In, f.Out, win)
		}
	}
	if want := heads + win + 2; combiner.In != want || combiner.Out != 1 {
		return nil, fmt.Errorf("inference: combiner shape %dx%d, want %dx1", combiner.In, combiner.Out, want)
	}
	cwLen := combiner.In
	arena := make([]float64, heads*win+heads+cwLen+1)
	e := &Engine{
		win: win, heads: heads,
		arena:   arena,
		hw:      arena[:heads*win],
		hb:      arena[heads*win : heads*win+heads],
		cw:      arena[heads*win+heads : heads*win+heads+cwLen],
		acts:    make([]nn.Activation, heads),
		combAct: combiner.Act,
	}
	for h, f := range features {
		copy(e.hw[h*win:(h+1)*win], f.W)
		e.hb[h] = f.B[0]
		e.acts[h] = f.Act
	}
	copy(e.cw, combiner.W)
	e.cb = combiner.B[0]
	arena[len(arena)-1] = e.cb
	e.linear5 = win == 5 && combiner.Act == nn.Identity
	for _, a := range e.acts {
		e.linear5 = e.linear5 && a == nn.Identity
	}
	return e, nil
}

// Heads is the number of fused feature heads, and the scratch length Forward
// requires.
func (e *Engine) Heads() int { return e.heads }

// BatchScratchSize is the scratch length ForwardBatch requires for n windows.
func (e *Engine) BatchScratchSize(n int) int { return n * e.heads }

// Forward evaluates one window through the fused stack. scratch must have at
// least Heads() elements; on return its first Heads() hold the heads' outputs
// (delphi builds the combiner's training rows from them). x is read-only. No
// allocation, safe for concurrent use with distinct scratch.
func (e *Engine) Forward(x, scratch []float64) float64 {
	if len(x) != e.win {
		panic(fmt.Sprintf("inference: window length %d, want %d", len(x), e.win))
	}
	if len(scratch) < e.heads {
		panic(fmt.Sprintf("inference: scratch length %d, want >= %d", len(scratch), e.heads))
	}
	if e.linear5 {
		return e.forward5(x, scratch)
	}
	for h := 0; h < e.heads; h++ {
		sum := e.hb[h]
		row := e.hw[h*e.win : (h+1)*e.win]
		for i, xi := range x {
			sum += row[i] * xi
		}
		scratch[h] = e.acts[h].Apply(sum)
	}
	return e.combine(x, scratch[:e.heads])
}

// ForwardBatch evaluates len(dst) windows packed row-major in xs
// (len(dst) windows' worth of values) in one sweep: each head's weight row is
// streamed across the whole batch before the next (the rows stay hot in
// cache), then the combiner folds each row. scratch must have at least
// BatchScratchSize(len(dst)) elements. Per-window results are bit-identical
// to Forward — blocking changes the order across windows, never the
// accumulation order within one.
func (e *Engine) ForwardBatch(dst, xs, scratch []float64) {
	n := len(dst)
	if len(xs) != n*e.win {
		panic(fmt.Sprintf("inference: batch payload %d values, want %d", len(xs), n*e.win))
	}
	if len(scratch) < n*e.heads {
		panic(fmt.Sprintf("inference: batch scratch %d, want >= %d", len(scratch), n*e.heads))
	}
	if e.linear5 {
		for i := 0; i < n; i++ {
			dst[i] = e.forward5(xs[i*5:i*5+5:i*5+5], scratch[i*e.heads:(i+1)*e.heads])
		}
		return
	}
	for h := 0; h < e.heads; h++ {
		b := e.hb[h]
		row := e.hw[h*e.win : (h+1)*e.win]
		act := e.acts[h]
		for i := 0; i < n; i++ {
			x := xs[i*e.win : (i+1)*e.win]
			sum := b
			for j, xj := range x {
				sum += row[j] * xj
			}
			scratch[i*e.heads+h] = act.Apply(sum)
		}
	}
	for i := 0; i < n; i++ {
		dst[i] = e.combine(xs[i*e.win:(i+1)*e.win], scratch[i*e.heads:(i+1)*e.heads])
	}
}

// forward5 is the unrolled linear kernel for window-5 all-Identity stacks:
// the window lives in registers across every head dot and the combiner fold.
// Accumulation order is exactly the generic path's (left-to-right per head,
// then head outputs, window, mean, slope), so results are bit-identical.
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

// combine folds one window and its head outputs through the combiner. The
// accumulation order matches the layered path exactly: head outputs, window
// values, mean, slope.
func (e *Engine) combine(x, heads []float64) float64 {
	sum := e.cb
	for h, v := range heads {
		sum += e.cw[h] * v
	}
	off := e.heads
	for i, xi := range x {
		sum += e.cw[off+i] * xi
	}
	mean := 0.0
	for _, xi := range x {
		mean += xi
	}
	mean /= float64(len(x))
	slope := x[len(x)-1] - x[0]
	sum += e.cw[off+e.win] * mean
	sum += e.cw[off+e.win+1] * slope
	return e.combAct.Apply(sum)
}
