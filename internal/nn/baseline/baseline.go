// Package baseline is the paper's per-metric LSTM comparator (Fig. 11) and
// the generic layer stack it trains on: Sequential runs every sample forward
// and back through each Layer, and an identity Dense of any shape is the
// stack's head. It is reproduction code that no daemon links. It trains in
// nn.Loop with nn.Adam, the loop and optimizer Delphi's fused nn.Dense fit
// runs in, so on the one shape they share — a lone In → 1 layer — the two
// agree bit for bit, and this stack is that fit's reference.
package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
)

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
	// Params returns parameter slices; the optimizer mutates them in place.
	// The same slices, in the same order, on every call.
	Params() [][]float64
	// Grads returns gradient accumulators parallel to Params.
	Grads() [][]float64
	// ZeroGrads clears gradient accumulators.
	ZeroGrads()
	// Trainable reports whether the optimizer may update this layer.
	Trainable() bool
}

// ParamCount sums the parameters of a layer set, total and trainable — the
// LSTM baseline's is the paper's 71,851 up to rounding of the hidden size.
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
	return fmt.Errorf("baseline: %s dimension %d, want %d", what, got, want)
}

// rng returns a deterministic random source for reproducible init.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Dense is a fully-connected identity layer y = Wx + b of any shape: the
// head of the LSTM stack, and the generic twin of nn.Dense. Setting Frozen
// keeps the optimizer off it. W and B are allocated by NewDense; write their
// elements, never replace the slices (Params hands out the views made at
// construction).
type Dense struct {
	In, Out int
	W       []float64 // Out*In, row-major: W[o*In+i]
	B       []float64 // Out
	Frozen  bool

	gw, gb []float64 // gradient accumulators
	x      []float64 // copy of the last input: the caller's slice is not kept
	y      []float64 // output, the slice Forward returns
	dx     []float64 // input gradient, the slice Backward returns

	params, grads [2][]float64 // what Params and Grads return, built once
}

// NewDense builds a dense layer with Glorot-uniform initialization from the
// given seed; an In → 1 layer starts from nn.NewDense's weights.
func NewDense(in, out int, seed int64) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: make([]float64, out*in), B: make([]float64, out),
		gw: make([]float64, out*in), gb: make([]float64, out),
		x: make([]float64, in), y: make([]float64, out), dx: make([]float64, in),
	}
	d.params = [2][]float64{d.W, d.B}
	d.grads = [2][]float64{d.gw, d.gb}
	r := rng(seed)
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = (r.Float64()*2 - 1) * limit
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(errDimension("dense input", len(x), d.In))
	}
	for o := range d.y {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		d.y[o] = sum
	}
	copy(d.x, x)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.Out {
		panic(errDimension("dense grad", len(dy), d.Out))
	}
	dx := d.dx
	clear(dx)
	for o, dz := range dy {
		d.gb[o] += dz
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.gw[o*d.In : (o+1)*d.In]
		for i := range dx {
			grow[i] += dz * d.x[i]
			dx[i] += dz * row[i]
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dense) Params() [][]float64 { return d.params[:] }

// Grads implements Layer.
func (d *Dense) Grads() [][]float64 { return d.grads[:] }

// ZeroGrads implements Layer.
func (d *Dense) ZeroGrads() {
	clear(d.gw)
	clear(d.gb)
}

// Trainable implements Layer.
func (d *Dense) Trainable() bool { return !d.Frozen }

// Sequential chains layers into a model trained with MSE loss. Training works
// in scratch the model and its layers own — after the first batch a step
// allocates nothing — so one Sequential trains on one goroutine at a time.
type Sequential struct {
	Layers []Layer

	dy            []float64   // loss gradient of the sample in hand
	params, grads [][]float64 // what a step hands the optimizer
}

// NewSequential builds a model from layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Predict runs a forward pass. The result is the last layer's (see
// Layer.Forward): valid until the model next predicts or trains.
func (m *Sequential) Predict(x []float64) []float64 {
	out := x
	for _, l := range m.Layers {
		out = l.Forward(out)
	}
	return out
}

// Predict1 runs a forward pass on a model with a single output.
func (m *Sequential) Predict1(x []float64) float64 { return m.Predict(x)[0] }

// TrainBatch performs one optimizer step over the batch with MSE loss and
// returns the mean loss. xs[i] must match the first layer's input size and
// ys[i] the last layer's output size. A frozen layer's parameters reach opt
// with nil gradients, so they keep their moment slots and do not move.
func (m *Sequential) TrainBatch(xs, ys [][]float64, opt *nn.Adam) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, nn.ErrEmptyDataset
	}
	for _, l := range m.Layers {
		l.ZeroGrads()
	}
	loss := 0.0
	for i := range xs {
		pred := m.Predict(xs[i])
		if len(pred) != len(ys[i]) {
			return 0, errDimension("target", len(ys[i]), len(pred))
		}
		if cap(m.dy) < len(pred) {
			m.dy = make([]float64, len(pred))
		}
		dy := m.dy[:len(pred)]
		for j := range pred {
			diff := pred[j] - ys[i][j]
			loss += diff * diff
			dy[j] = 2 * diff / float64(len(pred))
		}
		for li := len(m.Layers) - 1; li >= 0; li-- {
			dy = m.Layers[li].Backward(dy)
		}
	}
	m.params, m.grads = m.params[:0], m.grads[:0]
	for _, l := range m.Layers {
		grads := l.Grads()
		for k, p := range l.Params() {
			g := grads[k]
			if !l.Trainable() {
				g = nil
			}
			m.params, m.grads = append(m.params, p), append(m.grads, g)
		}
	}
	opt.Step(m.params, m.grads, len(xs))
	return loss / float64(len(xs)), nil
}

// Fit trains the model in nn.Loop, gathering each batch for TrainBatch, and
// returns the last epoch's mean loss.
func (m *Sequential) Fit(xs, ys [][]float64, opts nn.FitOptions) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errDimension("targets", len(ys), len(xs))
	}
	var bx, by [][]float64
	return nn.Loop(len(xs), opts, func(opt *nn.Adam, batch []int) (float64, error) {
		bx, by = bx[:0], by[:0]
		for _, i := range batch {
			bx, by = append(bx, xs[i]), append(by, ys[i])
		}
		return m.TrainBatch(bx, by, opt)
	})
}

// ParamCount reports (total, trainable) parameters.
func (m *Sequential) ParamCount() (int, int) { return ParamCount(m.Layers) }
